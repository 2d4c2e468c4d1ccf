"""Inter-node messages (paper §7.2).

A message carries (1) a shared reference to a data frame and (2) metadata
on query progress.  ``kind`` distinguishes DELTA partials (append to the
consumer's current version) from REPLACE snapshots (begin a new version).
A special EOF marker ends a stream; once a node has EOF on all inputs it
flushes and forwards EOF.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataframe.frame import DataFrame
from repro.core.properties import Delivery, Progress


@dataclass(frozen=True)
class Message:
    """One unit of data flow: a frame plus progress metadata."""

    frame: DataFrame
    progress: Progress
    kind: Delivery = Delivery.DELTA

    @property
    def t(self) -> float:
        return self.progress.fraction

    def replaced_frame(self, frame: DataFrame) -> "Message":
        return Message(frame=frame, progress=self.progress, kind=self.kind)


@dataclass(frozen=True)
class Eof:
    """End-of-stream marker for one input port."""

    progress: Progress


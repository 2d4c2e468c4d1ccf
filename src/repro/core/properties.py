"""edf evolution properties: progress and delivery semantics (paper §4.1).

*Progress* ``t`` is the ratio of original input tuples processed so far to
the total that must be processed (known from catalog metadata, §4.4).  With
multiple sources (joins), each message tracks per-source counters and the
scalar ``t`` is the minimum per-source fraction among still-incomplete
sources — the "driving" stream.  Completed sources (e.g. hash-join build
tables) contribute 1 and therefore never dilute the driver's fraction.

*Delivery* captures how a stream communicates change (paper §4.2, Fig 5):
``DELTA`` messages append partials to the current version (Case 1 ops),
while ``REPLACE`` messages begin a new version holding a full snapshot
(Cases 2–3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.errors import ExecutionError


class Delivery(enum.Enum):
    """How a stream's messages must be interpreted by consumers."""

    DELTA = "delta"  # append-only partials; prior output remains valid
    REPLACE = "replace"  # full snapshots; prior output is superseded


@dataclass(frozen=True)
class Progress:
    """Immutable per-source progress counters.

    ``done`` and ``total`` map source names to tuple counts.  Sources are
    the base tables feeding the query (paper §4.1: progress is defined over
    *original input* tuples, and "every operation simply propagates the
    progress value").
    """

    done: Mapping[str, int] = field(default_factory=dict)
    total: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "done", MappingProxyType(dict(self.done)))
        object.__setattr__(self, "total", MappingProxyType(dict(self.total)))
        for source, count in self.done.items():
            if source not in self.total:
                raise ExecutionError(
                    f"progress for {source!r} has done={count} but no total"
                )
            if count > self.total[source]:
                raise ExecutionError(
                    f"progress for {source!r} exceeds total: "
                    f"{count} > {self.total[source]}"
                )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def start(cls, source: str, total: int) -> "Progress":
        return cls(done={source: 0}, total={source: total})

    def advanced(self, source: str, rows: int) -> "Progress":
        """A copy with ``rows`` more tuples consumed from ``source``."""
        done = dict(self.done)
        done[source] = done.get(source, 0) + rows
        return Progress(done=done, total=dict(self.total))

    def merged(self, other: "Progress") -> "Progress":
        """Combine progress from two streams (per-source max of done)."""
        done = dict(self.done)
        total = dict(self.total)
        for source, count in other.done.items():
            done[source] = max(done.get(source, 0), count)
        for source, count in other.total.items():
            if source in total and total[source] != count:
                raise ExecutionError(
                    f"conflicting totals for source {source!r}: "
                    f"{total[source]} vs {count}"
                )
            total[source] = count
        return Progress(done=done, total=total)

    # -- scalar views ----------------------------------------------------------
    @property
    def fraction(self) -> float:
        """Scalar progress t ∈ (0, 1]: the minimum per-source fraction
        among incomplete sources (completed sources count as 1)."""
        fractions = []
        for source, total in self.total.items():
            if total <= 0:
                continue
            fractions.append(min(1.0, self.done.get(source, 0) / total))
        if not fractions:
            return 1.0
        incomplete = [f for f in fractions if f < 1.0]
        return min(incomplete) if incomplete else 1.0

    @property
    def is_complete(self) -> bool:
        return all(
            self.done.get(source, 0) >= total
            for source, total in self.total.items()
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s}:{self.done.get(s, 0)}/{t}" for s, t in sorted(
                self.total.items())
        )
        return f"Progress(t={self.fraction:.3f}; {parts})"


@dataclass(frozen=True)
class StreamInfo:
    """Plan-time description of an edf stream flowing along a graph edge.

    Mirrors the paper's edf properties (§3.1, §4.1): the schema (with
    constant/mutable attribute kinds), the primary key, the physical
    clustering key (if any), and the delivery semantics.  Operators use
    this to pick execution strategies (e.g. merge vs hash join, local vs
    shuffle aggregation) at graph-build time.
    """

    schema: object  # repro.dataframe.Schema (kept loose to avoid cycles)
    primary_key: tuple[str, ...] = ()
    clustering_key: tuple[str, ...] = ()
    delivery: Delivery = Delivery.DELTA

    def clustered_on(self, keys: tuple[str, ...]) -> bool:
        """True when this stream's clustering key is a subset of ``keys``.

        If every clustering column is among the grouping/join keys, rows of
        one cluster can never spread across partitions, enabling local
        (Case 1) processing.
        """
        return bool(self.clustering_key) and set(
            self.clustering_key
        ).issubset(set(keys))

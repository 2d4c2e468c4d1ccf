"""Sort / limit operator — Case 3: shuffle without inference (paper §2.2).

Order-by and limit must consume their entire input; every input change is
answered with a REPLACE snapshot.  The per-message cost still has to
track the *message*, not the stream (ROADMAP cost model):

* the buffered history is a cached concat (like the executor's
  ``_SinkState``): each DELTA partial is folded in with one concat, the
  stream is never re-concatenated wholesale;
* with ``limit=k`` a bounded top-k buffer is maintained instead — each
  partial is merged against at most k retained rows, so per-message cost
  is O((k + |partial|) log (k + |partial|)) regardless of history.  The
  sort is stable, so the retained boundary ties are exactly the ones a
  full re-sort of the whole history would keep (byte-identical output);
* a full re-sort only remains on the unbounded order-by path, where the
  output *is* the whole sorted history.

A REPLACE input resets the buffers and is recomputed wholesale — the
snapshot is the message, so that cost is already message-shaped.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.dataframe.sort import sort_frame
from repro.core.properties import Delivery, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator


class SortLimitOperator(Operator):
    """Sort by keys (optional) and keep the first ``limit`` rows
    (optional).  At least one of the two must be requested."""

    def __init__(
        self,
        name: str,
        by: Sequence[str] = (),
        ascending: Sequence[bool] | bool = True,
        limit: int | None = None,
    ) -> None:
        super().__init__(name)
        if not by and limit is None:
            raise QueryError(
                f"sort/limit {self.name!r}: need sort keys and/or a limit"
            )
        if limit is not None and limit < 0:
            raise QueryError(f"negative limit in {self.name!r}")
        self.by = tuple(by)
        self.ascending = ascending
        self.limit = limit
        self._parts: list[DataFrame] = []
        self._cached: DataFrame | None = None
        self._topk: DataFrame | None = None

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        for key in self.by:
            if key not in info.schema:
                raise self.fail(
                    "undefined-column",
                    f"unknown sort key {key!r}; available: "
                    f"{list(info.schema.names)}",
                    column=key,
                )
        return StreamInfo(
            schema=info.schema,
            primary_key=info.primary_key,
            clustering_key=self.by,  # output is physically ordered by keys
            delivery=Delivery.REPLACE,
        )

    def required_inputs(self, input_schemas, required):
        if required is None:
            return [None]
        return [required | set(self.by)]

    def reads_versions(self, port: int, wanted: bool) -> bool:
        return wanted

    def signature(self) -> tuple:
        ascending = self.ascending
        if not isinstance(ascending, bool):
            ascending = tuple(bool(a) for a in ascending)
        return (self.by, ascending, self.limit)

    def _emit(self, frame: DataFrame) -> list[Message]:
        return [
            Message(frame=frame, progress=self.progress,
                    kind=Delivery.REPLACE)
        ]

    def _sorted_head(self, frame: DataFrame) -> DataFrame:
        if self.by and frame.n_rows:
            frame = sort_frame(frame, list(self.by), self.ascending)
        if self.limit is not None:
            frame = frame.head(self.limit)
        return frame

    # -- unbounded path: cached concat of the DELTA history ----------------------
    def _current(self) -> DataFrame:
        if self._parts:
            base = [] if self._cached is None else [self._cached]
            self._cached = DataFrame.concat(base + self._parts)
            self._parts = []
        if self._cached is None:
            return DataFrame.empty(self.input_infos[0].schema)
        return self._cached

    # -- bounded path: top-k buffer ----------------------------------------------
    def _fold_limit(self, frame: DataFrame) -> DataFrame:
        assert self.limit is not None
        if self._topk is None:
            cand = frame
        elif not frame.n_rows:
            return self._topk
        elif not self.by and self._topk.n_rows >= self.limit:
            # Pure limit over an append-only stream: the first k rows
            # are already fixed forever.
            return self._topk
        else:
            cand = DataFrame.concat([self._topk, frame])
        self._topk = self._sorted_head(cand)
        return self._topk

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if message.kind == Delivery.REPLACE:
            # Wholesale recompute; the snapshot also reseeds the buffers
            # so trailing DELTA partials (if any) fold on top of it.  On
            # the bounded path the O(k) reseed is _topk — retaining the
            # full snapshot there would pin it for no reader.
            self._parts = []
            self._cached = message.frame if self.limit is None else None
            out = self._sorted_head(message.frame)
            if self.limit is not None:
                self._topk = out
            return self._emit(out)
        if self.limit is not None:
            return self._emit(self._fold_limit(message.frame))
        self._parts.append(message.frame)
        return self._emit(self._sorted_head(self._current()))

"""Distinct operator.

With DELTA input the operator is incremental (Case 1-like): it remembers
the keys already emitted and forwards only never-seen rows, keeping the
stream a DELTA stream.  With REPLACE input each snapshot is deduplicated
wholesale.

The seen-set is a persistent :class:`~repro.dataframe.groupby.Grouper`:
each partial is slot-encoded against the accumulated key index in
O(|partial| + new keys), and rows whose slot was handed out by this very
message are the never-seen ones.  (The previous implementation re-encoded
the entire seen history through ``shared_codes`` — a full ``np.unique``
over all consumed keys — and re-concatenated the seen frame on every
message: O(total-consumed) per message, violating the ROADMAP cost
model.)  NaN keys collapse to one group, exactly like the one-shot
``distinct_rows`` path (``np.unique`` with ``equal_nan``).
"""

from __future__ import annotations

from typing import Sequence

from repro.dataframe.groupby import Grouper, distinct_rows
from repro.core.properties import Delivery, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator


class DistinctOperator(Operator):
    """Deduplicate rows on ``subset`` columns (all columns if empty)."""

    def __init__(self, name: str, subset: Sequence[str] = ()) -> None:
        super().__init__(name)
        self.subset = tuple(subset)
        self._seen: Grouper | None = None
        self._keys: tuple[str, ...] = ()
        self._incremental = False

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        keys = self.subset or info.schema.names
        for key in keys:
            if key not in info.schema:
                raise self.fail(
                    "undefined-column",
                    f"unknown column {key!r}; available: "
                    f"{list(info.schema.names)}",
                    column=key,
                )
        return StreamInfo(
            schema=info.schema,
            primary_key=tuple(keys),
            clustering_key=info.clustering_key,
            delivery=info.delivery,
        )

    def _on_bound(self) -> None:
        self._keys = self.output_info.primary_key
        self._incremental = self.output_info.delivery == Delivery.DELTA

    def required_inputs(self, input_schemas, required):
        if required is None:
            return [None]
        # An empty subset means "distinct over all columns".
        return [required | set(self.subset) if self.subset else None]

    def signature(self) -> tuple:
        return (self.subset,)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if not self._incremental or message.kind == Delivery.REPLACE:
            return [
                message.replaced_frame(
                    distinct_rows(message.frame, self._keys)
                )
            ]
        fresh = distinct_rows(message.frame, self._keys)
        if fresh.n_rows:
            if self._seen is None:
                self._seen = Grouper(self._keys)
            before = self._seen.n_groups
            slots = self._seen.encode(fresh)
            # fresh is key-deduplicated, so a slot >= before marks the
            # first-ever occurrence of that key across the stream.
            fresh = fresh.mask(slots >= before)
        return [message.replaced_frame(fresh)]

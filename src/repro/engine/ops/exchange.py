"""Exchange-based data parallelism: hash shard ports + shard union.

This module provides the two dataflow pieces the shard rewrite
(:mod:`repro.engine.planner`) composes into K hash-partitioned replicas
of a stateful subplan:

* :class:`ExchangeOperator` — one shard output port of a logical K-way
  hash exchange.  The planner instantiates K sibling ports over the same
  upstream node; each masks the incoming message down to the rows whose
  key hash lands on its shard.  Siblings share a :class:`ShardHashCache`
  so each in-flight message is hashed once, not once per port.
* :class:`UnionOperator` — the combine step over the K shard replicas.
  REPLACE inputs (sharded aggregates) are concatenated key-sorted from
  the latest per-port snapshots, with progress aligned to the slowest
  reporting shard; DELTA inputs (sharded joins) pass through unchanged.

Hashing canonicalizes keys so that rows equal under the engine's grouping
semantics always co-locate: all numerics go through float64 (an int64
probe key equals a float64 build key), ``-0.0`` folds onto ``+0.0``, and
every NaN onto one canonical NaN (one NaN group, like
``np.unique(equal_nan)``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.dataframe.sort import sort_frame
from repro.core.properties import Delivery, Progress, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _splitmix64(u: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    with np.errstate(over="ignore"):
        z = u + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _column_bits(values: np.ndarray) -> np.ndarray:
    """Canonical uint64 bit pattern per value: keys equal under grouping
    semantics map to equal bits (see module docstring)."""
    if values.dtype.kind in "biuf":
        v = values.astype(np.float64)  # always copies into fresh buffer
        v[v == 0.0] = 0.0  # -0.0 == 0.0 must shard together
        v[np.isnan(v)] = np.nan  # one canonical NaN bit pattern
        return v.view(np.uint64)
    if values.dtype.kind in "US":
        arr = values if values.dtype.kind == "U" else values.astype(str)
        n = len(arr)
        if n == 0 or arr.dtype.itemsize == 0:
            return np.zeros(n, dtype=np.uint64)
        # Fixed-width UCS4 storage viewed as a codepoint matrix;
        # polynomial fold sum(c_j * B^j) in which the zero padding
        # contributes nothing, so equal strings hash equal regardless of
        # the array's item width (the same key streams in frames of
        # varying widths).
        mat = np.ascontiguousarray(arr).view(np.uint32)
        mat = mat.reshape(n, -1).astype(np.uint64)
        out = np.full(n, _FNV_OFFSET, dtype=np.uint64)
        power = np.uint64(1)
        with np.errstate(over="ignore"):
            for j in range(mat.shape[1]):
                out = out + mat[:, j] * power
                power = power * _FNV_PRIME
        return out
    raise QueryError(
        f"cannot hash-partition on dtype {values.dtype!r}"
    )


def shard_assignment(
    columns: Sequence[np.ndarray], n_shards: int
) -> np.ndarray:
    """Shard id in ``[0, n_shards)`` per row of the key columns."""
    if not columns:
        raise QueryError("shard assignment requires at least one key column")
    h = np.zeros(len(columns[0]), dtype=np.uint64)
    for col in columns:
        h = _splitmix64(h ^ _column_bits(col))
    return (h % np.uint64(n_shards)).astype(np.int64)


class ShardHashCache:
    """Per-message shard-assignment memo shared by the K sibling ports of
    one logical exchange.

    The executor fans one message (one frame object) out to every port by
    reference, so keying on ``id(frame)`` deduplicates the hash work.
    Entries keep a strong reference to their frame — an id can never be
    recycled while its entry lives — and are reference-counted: each of
    the K ports reads a message exactly once, so an entry is dropped on
    its K-th access and the cache holds only frames some sibling has not
    consumed yet (the executor hands a message to all K ports before the
    next one; the FIFO cap is a safety net for operators that re-emit
    one frame object).
    """

    CAPACITY = 64

    def __init__(self, keys: Sequence[str], n_shards: int) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        self.keys = tuple(keys)
        self.n_shards = n_shards
        #: id(frame) -> [frame, shards, remaining reads]
        self._entries: OrderedDict[int, list] = OrderedDict()

    def shards_for(self, frame: DataFrame) -> np.ndarray:
        key = id(frame)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is frame:
            entry[2] -= 1
            if entry[2] <= 0:
                del self._entries[key]
            return entry[1]
        shards = shard_assignment(
            [frame.column(k) for k in self.keys], self.n_shards
        )
        if self.n_shards > 1:
            self._entries[key] = [frame, shards, self.n_shards - 1]
            while len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)
        return shards


class ExchangeOperator(Operator):
    """One shard output port of a K-way hash exchange.

    Forwards the rows of every message whose key hash lands on ``shard``;
    schema, keys, clustering, and delivery all pass through unchanged
    (masking a partition preserves intra-message order, and a whole key
    cluster always lands on one port, so clustering guarantees survive).
    Empty masked messages still flow — they carry the progress downstream
    estimates refresh on.
    """

    def __init__(
        self,
        name: str,
        keys: Sequence[str],
        shard: int,
        n_shards: int,
        cache: ShardHashCache | None = None,
    ) -> None:
        super().__init__(name)
        if not keys:
            raise QueryError(f"exchange {name!r} requires key columns")
        if n_shards < 1:
            raise QueryError(
                f"exchange {name!r}: n_shards must be >= 1, got {n_shards}"
            )
        if not 0 <= shard < n_shards:
            raise QueryError(
                f"exchange {name!r}: shard {shard} out of range "
                f"[0, {n_shards})"
            )
        self.keys = tuple(keys)
        self.shard = shard
        self.n_shards = n_shards
        if cache is None:
            cache = ShardHashCache(self.keys, n_shards)
        if cache.keys != self.keys or cache.n_shards != n_shards:
            raise QueryError(
                f"exchange {name!r}: shared cache is keyed on "
                f"{cache.keys}/{cache.n_shards}, port expects "
                f"{self.keys}/{n_shards}"
            )
        self._cache = cache

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        for key in self.keys:
            if key not in info.schema:
                raise self.fail(
                    "undefined-column",
                    f"unknown key column {key!r}; available: "
                    f"{list(info.schema.names)}",
                    column=key,
                )
        return info

    def required_inputs(self, input_schemas, required):
        if required is None:
            return [None]
        return [required | set(self.keys)]

    def signature(self, alpha: bool) -> tuple:
        return (self.keys, self.shard, self.n_shards)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        shards = self._cache.shards_for(message.frame)
        return [
            message.replaced_frame(message.frame.mask(shards == self.shard))
        ]


class UnionOperator(Operator):
    """Combine the K shard replicas of a sharded subplan.

    With REPLACE inputs (sharded aggregates) the operator keeps the
    latest snapshot per port and emits their concatenation on every
    update, sorted on ``sort_keys`` so rows come out in the same
    key-sorted order the unsharded operator produces (shards own disjoint
    key ranges, so the sorted concat of exact finals is byte-identical).
    The attached progress is aligned to the *slowest* reporting shard
    (per-source minimum of done counters), so a downstream consumer's
    growth inference never sees an overstated t for rows that are still
    missing a lagging shard's refresh.

    With DELTA inputs (sharded joins) messages pass through unchanged:
    shard outputs are key-disjoint partials, so any interleaving is a
    valid DELTA stream.

    ``info`` optionally pins the output :class:`StreamInfo` to the
    original (unsharded) operator's, keeping every downstream bind
    decision identical to the unsharded plan.
    """

    def __init__(
        self,
        name: str,
        n_inputs: int,
        sort_keys: Sequence[str] = (),
        info: StreamInfo | None = None,
    ) -> None:
        super().__init__(name)
        if n_inputs < 1:
            raise QueryError(
                f"union {name!r} requires >= 1 input, got {n_inputs}"
            )
        self.n_inputs = n_inputs
        self.sort_keys = tuple(sort_keys)
        self._info_override = info
        self._combine = False
        self._latest: list[Message | None] = [None] * n_inputs
        self._emitted_complete = False

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        first = inputs[0]
        for other in inputs[1:]:
            if not first.schema.same_layout(other.schema):
                raise self.fail(
                    "type-mismatch",
                    f"input schemas differ: {first.schema!r} vs "
                    f"{other.schema!r}",
                )
            if other.delivery != first.delivery:
                raise self.fail(
                    "delivery-misuse",
                    f"mixed input deliveries ({first.delivery.value} vs "
                    f"{other.delivery.value})",
                )
        if self._info_override is not None:
            if not first.schema.same_layout(self._info_override.schema):
                raise self.fail(
                    "type-mismatch",
                    "pinned info schema does not match the shard schemas",
                )
            return self._info_override
        if first.delivery == Delivery.REPLACE:
            return StreamInfo(
                schema=first.schema,
                primary_key=first.primary_key,
                clustering_key=(),
                delivery=Delivery.REPLACE,
            )
        return StreamInfo(
            schema=first.schema,
            primary_key=first.primary_key,
            clustering_key=first.clustering_key,
            delivery=Delivery.DELTA,
        )

    def _on_bound(self) -> None:
        self._combine = self.input_infos[0].delivery == Delivery.REPLACE

    def required_inputs(self, input_schemas, required):
        return [required] * self.n_inputs

    def signature(self, alpha: bool) -> tuple:
        return (self.n_inputs, self.sort_keys)

    # -- REPLACE combine ---------------------------------------------------------
    def _all_ports_accounted(self) -> bool:
        """Every port has either reported a snapshot or reached EOF."""
        return all(
            m is not None or port in self._eof_ports
            for port, m in enumerate(self._latest)
        )

    def _aligned_progress(self, reported: list[Message]) -> Progress:
        """Slowest-shard progress: per-source min of done counters over
        the reporting ports (emission is held until every live port has
        reported, so no shard's groups are silently missing; EOF'd ports
        without a report own nothing and are excluded)."""
        total: dict[str, int] = {}
        for message in reported:
            for source, count in message.progress.total.items():
                total[source] = count
        done = {
            source: min(
                m.progress.done.get(source, 0) for m in reported
            )
            for source in total
        }
        return Progress(done=done, total=total)

    def _combined(self, progress: Progress | None = None) -> Message:
        reported = [m for m in self._latest if m is not None]
        frames = [m.frame for m in reported]
        # Empty snapshots contribute no rows; keeping them out of the
        # concat also tolerates an empty-state shard whose planned
        # schema spells a logical dtype (e.g. DATE) differently from the
        # inference output layout.
        pool = [f for f in frames if f.n_rows] or frames[:1]
        frame = pool[0] if len(pool) == 1 else DataFrame.concat(pool)
        if self.sort_keys and frame.n_rows:
            frame = sort_frame(frame, list(self.sort_keys))
        if progress is None:
            progress = self._aligned_progress(reported)
        if progress.is_complete:
            self._emitted_complete = True
        return Message(frame=frame, progress=progress,
                       kind=Delivery.REPLACE)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if not self._combine:
            return [message]
        self._latest[port] = message
        if not self._all_ports_accounted():
            # A live shard has not refreshed even once: its groups are
            # missing and any progress claim for it would be a lie.
            # Hold the combine (shard replicas report from the first
            # message on, so this only spans the first fan-out round).
            return []
        return [self._combined()]

    def _final_flush(self) -> list[Message]:
        """Seal the stream with one complete combined snapshot (unless
        the last per-port refresh already was one).  Ports that never
        reported own zero groups and contribute nothing."""
        if not self._combine or self._emitted_complete:
            return []
        if not any(m is not None for m in self._latest):
            return []
        out = [self._combined(progress=self.progress)]
        self._emitted_complete = True
        return out

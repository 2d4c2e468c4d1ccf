"""Intrinsic state maintenance: versions × partials (paper §4.2, Fig 5).

:class:`GroupedAggregateState` is the aggregate operator's intrinsic
state: fixed-slot numpy arrays of mergeable columns keyed by a
persistent :class:`~repro.dataframe.groupby.Grouper` slot mapping, plus
exact distinct-pair counters for count-distinct and slot-aligned
:class:`~repro.core.orderstat.OrderStatState` for order statistics.  It
supports both update styles: ``consume_delta`` merges a partial in (a
new partial of the current version, Case 2 input), ``consume_snapshot``
refreshes from a full snapshot (a new version, Case 3 / REPLACE input).

Per-message cost (arXiv:2303.04103 §7.2: it must track the partition,
never the data consumed so far):

* ``consume_delta`` is O(|partial| + new groups) plus a few vectorised
  passes over the slot arrays: incoming rows are slot-encoded once,
  per-slot partial aggregates are computed with dense bincount/segment
  kernels, and the accumulators — views over capacity-doubling buffers —
  are updated in place.
* ``consume_snapshot`` resets the accumulators and nothing else.  Group
  identity — slot space, key frame, key-sorted slot permutation — is
  computed once and kept across versions, so a cascade of aggregates
  (paper §8.6) does not re-derive every group on every message at every
  level.  A snapshot whose key columns equal the previous snapshot's
  costs one memcpy-speed comparison per key column and reuses the
  previous slot codes; one whose keys changed is encoded against the
  persistent ``Grouper`` (O(|snapshot|) vectorised, only unseen keys
  register).  Readers emit only slots with cardinality > 0 in the
  current version, so the output is byte-identical to a state rebuilt
  from that snapshot alone.  The slot space is never compacted: it holds
  every key any version has shown.
* A global aggregate (no ``by``) has one slot and encodes nothing.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import AggSpec, Grouper
from repro.core.mergeable import (
    AGGREGATES,
    CARDINALITY_COLUMN,
    PARTS,
    kept_parts,
    part_column,
)
from repro.core.orderstat import DEFAULT_SKETCH_SIZE, OrderStatState

#: Constant key column a global (ungrouped) aggregate's ``state_frame()``
#: carries in place of group keys; it is never encoded.
SYNTHETIC_KEY = "__group__"


class GroupedAggregateState:
    """The aggregate operator's intrinsic state (paper §4.2–§4.3).

    Maintains, per group slot:

    * ``__card__`` — the group input cardinality x_i(t),
    * the slot parts every :class:`AggSpec` keeps (its row of
      :data:`~repro.core.mergeable.AGGREGATES`), one column each,
    * for count-distinct specs, an incrementally-maintained distinct
      (key, value)-pair counter, and
    * for order-statistic specs, a per-slot
      :class:`~repro.core.orderstat.OrderStatState` — the exact value
      multiset as incrementally-merged sorted runs (``quantile_mode
      ="exact"``, the default), or a bounded-memory reservoir sketch
      (``"sketch"``).

    Group identity outlives versions.  The slot space, the key frame and
    the key-sorted slot permutation belong to the ``Grouper`` and are
    never rebuilt; :meth:`begin_version` only returns the accumulators
    to their merge identities.  A slot whose cardinality is zero in the
    current version is *dead*: it keeps its place but no reader emits
    it, so a snapshot that shrinks or goes empty reads exactly like a
    fresh state fed only that snapshot.  A global aggregate (``by=()``)
    has one slot and never encodes a key.

    ``version`` counts complete refreshes; ``rows_consumed`` counts input
    tuples folded into the *current* version (the basis of growth fitting).
    ``track_moments`` additionally keeps the count/sum-of-squares moments
    of ``sum``/``avg`` for the CI extension (§6).
    """

    def __init__(
        self,
        by: Sequence[str],
        specs: Sequence[AggSpec],
        track_moments: bool = False,
        quantile_mode: str = "exact",
        sketch_size: int = DEFAULT_SKETCH_SIZE,
    ) -> None:
        if not specs:
            raise QueryError("aggregate state requires at least one AggSpec")
        # quantile_mode validation is owned by OrderStatState (built in
        # begin_version whenever an order-statistic spec is present).
        self.by = tuple(by)
        self.specs = tuple(specs)
        self.track_moments = track_moments
        self.quantile_mode = quantile_mode
        self.sketch_size = sketch_size
        # (spec, state column, part) of every kept part, in column order.
        self._columns = tuple(
            (spec, part_column(spec.alias, name), PARTS[name])
            for spec in self.specs
            for name in kept_parts(spec, track_moments)
        )
        self._pair_specs = tuple(
            spec for spec in self.specs
            if AGGREGATES[spec.agg].distinct_pairs
        )
        self._orderstat_specs = tuple(
            spec for spec in self.specs
            if AGGREGATES[spec.agg].order_stats
        )
        self._grouper = Grouper(self.by) if self.by else None
        # Accumulators are views over capacity-doubling buffers whose
        # unused tail always holds the merge identity.
        self._fill: dict[str, float] = {CARDINALITY_COLUMN: 0.0}
        for _spec, column, part in self._columns:
            self._fill[column] = part.identity
        for spec in self._pair_specs:
            self._fill[part_column(spec.alias, "distinct")] = 0.0
        self._buffers = {
            name: np.full(0, fill) for name, fill in self._fill.items()
        }
        self._n_slots = 0
        # Key columns and slot codes of the last REPLACE snapshot.
        self._snapshot_keys: list[np.ndarray] = []
        self._snapshot_codes: np.ndarray | None = None
        self._sorted_keys: DataFrame | None = None
        self._sorted_keys_perm: np.ndarray | None = None
        self.version = 0
        self.begin_version()

    # -- bookkeeping -----------------------------------------------------------
    @property
    def n_groups(self) -> int:
        """Groups holding at least one row of the current version."""
        return self._live

    @property
    def mean_cardinality(self) -> float:
        if self.n_groups == 0:
            return 0.0
        return self.rows_consumed / self.n_groups

    def begin_version(self) -> None:
        """Complete refresh: return every accumulator to its merge
        identity and bump the version counter.  Slots, keys and their
        sort order stay."""
        for name, buffer in self._buffers.items():
            buffer[:self._n_slots] = self._fill[name]
        # count_distinct: one pair Grouper (dedup index) per spec.
        self._pairs: dict[str, Grouper] = {}
        # median/quantile: per-spec incremental order-statistic state,
        # slot-aligned with the main Grouper (no key re-encoding on read).
        # Sketch randomness is seeded from the alias so repeated runs are
        # reproducible.
        self._orderstats = {
            spec.alias: OrderStatState(
                mode=self.quantile_mode, sketch_size=self.sketch_size,
                seed=zlib.crc32(spec.alias.encode()),
            )
            for spec in self._orderstat_specs
        }
        self._live = 0
        # Key dtypes a reader must present: a REPLACE version shows its
        # snapshot's (the persistent key frame may hold wider strings
        # from keys of earlier versions that are dead now).
        self._key_dtypes: list[np.dtype] | None = None
        self._frame_cache: DataFrame | None = None
        self._perm: np.ndarray | None = None
        self.rows_consumed = 0
        self.version += 1

    def _column(self, name: str) -> np.ndarray:
        return self._buffers[name][:self._n_slots]

    def _grow(self, n_slots: int) -> None:
        """Make room for ``n_slots`` slots: amortised O(new slots)."""
        allocated = len(self._buffers[CARDINALITY_COLUMN])
        if n_slots > allocated:
            capacity = max(n_slots, 2 * allocated)
            for name, buffer in self._buffers.items():
                grown = np.full(capacity, self._fill[name])
                grown[:self._n_slots] = buffer[:self._n_slots]
                self._buffers[name] = grown
        self._n_slots = n_slots

    # -- updates ----------------------------------------------------------------
    def _encode(self, frame: DataFrame) -> np.ndarray:
        if self._grouper is None:
            return np.zeros(frame.n_rows, dtype=np.int64)
        return self._grouper.encode(frame)

    def consume_delta(self, frame: DataFrame) -> None:
        """Fold one partial into the current version (incremental merge).

        Cost is O(|partial| + new groups) plus a few vectorised passes
        over the slot arrays: existing slots are updated in place; only
        previously-unseen group keys allocate new slots.
        """
        if frame.n_rows:
            self._accumulate(frame, self._encode(frame))

    def consume_snapshot(self, frame: DataFrame) -> None:
        """Complete refresh from a full snapshot (REPLACE input).

        A snapshot whose key columns equal the previous snapshot's
        reuses that snapshot's slot codes outright (one memcpy-speed
        comparison per key column); otherwise its keys go through the
        persistent ``Grouper``, which registers only the unseen ones."""
        self.begin_version()
        if frame.n_rows == 0:
            return
        keys = [frame.column(k) for k in self.by]
        codes = self._snapshot_codes
        if codes is None or len(codes) != frame.n_rows or not all(
            new is old or np.array_equal(new, old)
            for new, old in zip(keys, self._snapshot_keys)
        ):
            codes = self._snapshot_codes = self._encode(frame)
        self._snapshot_keys = keys
        self._key_dtypes = [column.dtype for column in keys]
        self._accumulate(frame, codes)

    def _accumulate(self, frame: DataFrame, codes: np.ndarray) -> None:
        n_slots = self._grouper.n_groups if self._grouper else 1
        self._grow(n_slots)
        card = self._column(CARDINALITY_COLUMN)
        seen = card > 0  # slots already holding rows of this version
        partial_card = np.bincount(codes, minlength=n_slots).astype(
            np.float64
        )
        card += partial_card
        self._live = int(np.count_nonzero(card))
        present = seen & (partial_card > 0)
        for spec, column, part in self._columns:
            values = (None if spec.column is None
                      else frame.column(spec.column))
            part.merge(self._column(column),
                       part.kernel(codes, n_slots, values), seen, present)
        for spec in self._pair_specs:
            self._consume_pairs(spec, frame)
        for spec in self._orderstat_specs:
            assert spec.column is not None
            self._orderstats[spec.alias].consume(
                codes, frame.column(spec.column)
            )
        self.rows_consumed += frame.n_rows
        self._frame_cache = None
        self._perm = None

    def _consume_pairs(self, spec: AggSpec, frame: DataFrame) -> None:
        """Register this partial's (key, value) pairs, counting only pairs
        never seen before — incoming rows are deduplicated against the
        pair Grouper's persistent index, not the full pair history."""
        assert spec.column is not None
        grouper = self._pairs.get(spec.alias)
        if grouper is None:
            grouper = Grouper((*self.by, spec.column))
            self._pairs[spec.alias] = grouper
        before = grouper.n_groups
        grouper.encode(frame)
        after = grouper.n_groups
        if after == before:
            return
        new_pairs = grouper.key_frame().slice(before, after)
        # Every key of a new pair was registered with the main grouper when
        # this partial was encoded, so this lookup allocates no slots.
        slots = self._encode(new_pairs)
        counts = self._column(part_column(spec.alias, "distinct"))
        counts += np.bincount(slots, minlength=len(counts))

    # -- readers ----------------------------------------------------------------
    def _sort_perm(self) -> np.ndarray:
        """Live slots in key-sorted order (matching the ordering the
        np.unique-based merge used to produce).  While every slot is
        live this *is* the grouper's permutation, so its identity tells
        :meth:`state_frame` whether the sorted keys changed."""
        if self._live == 0:
            raise QueryError("aggregate state is empty; nothing consumed yet")
        if self._perm is None:
            if self._grouper is None:
                perm = np.zeros(1, dtype=np.int64)
            else:
                perm = self._grouper.sort_perm()
            if self._live < self._n_slots:
                perm = perm[self._column(CARDINALITY_COLUMN)[perm] > 0]
            self._perm = perm
        return self._perm

    def state_frame(self) -> DataFrame:
        """Keys + cardinality + mergeable state columns (current version),
        one row per live group in key-sorted order."""
        perm = self._sort_perm()
        if self._frame_cache is None:
            if self._grouper is None:
                data = {SYNTHETIC_KEY: np.zeros(1, dtype=np.int64)}
            else:
                if perm is not self._sorted_keys_perm:
                    self._sorted_keys = self._grouper.key_frame().take(perm)
                    self._sorted_keys_perm = perm
                keys = self._sorted_keys
                assert keys is not None
                data = {name: keys.column(name) for name in self.by}
                for name, dtype in zip(self.by, self._key_dtypes or ()):
                    if data[name].dtype != dtype:
                        data[name] = data[name].astype(dtype)
            data[CARDINALITY_COLUMN] = self._column(CARDINALITY_COLUMN)[perm]
            for _spec, column, _part in self._columns:
                data[column] = self._column(column)[perm]
            self._frame_cache = DataFrame(data)
        return self._frame_cache

    def distinct_counts(self, spec: AggSpec) -> np.ndarray:
        """Observed per-group distinct counts for a count_distinct spec,
        aligned with :meth:`state_frame` row order."""
        perm = self._sort_perm()
        if spec.alias not in self._pairs:
            return np.zeros(len(perm), dtype=np.float64)
        return self._column(part_column(spec.alias, "distinct"))[perm]

    def sample_quantiles(self, spec: AggSpec) -> np.ndarray:
        """Per-group sample quantiles from the incremental order-statistic
        state, aligned with :meth:`state_frame` row order (the paper's
        f_order: the latest observed order statistic).

        Slots are shared with the main :class:`Grouper`, so the read is a
        direct slot gather — O(groups + new values since the last read),
        never a re-group of the full history."""
        perm = self._sort_perm()
        stats = self._orderstats.get(spec.alias)
        if stats is None or stats.n_values == 0:
            return np.full(len(perm), np.nan)
        per_slot = stats.quantiles(spec.quantile_fraction, self._n_slots)
        return per_slot[perm]

    def parts(self, spec: AggSpec) -> dict[str, np.ndarray]:
        """The ``y`` of :class:`~repro.core.mergeable.Reading`: ``spec``'s
        kept parts by name — plus ``"distinct"`` or ``"quantile"`` when
        it keeps distinct pairs or an order-statistic state — aligned
        with :meth:`state_frame` row order."""
        frame = self.state_frame()
        row = AGGREGATES[spec.agg]
        y = {
            part: frame.column(part_column(spec.alias, part))
            for part in kept_parts(spec, self.track_moments)
        }
        if row.distinct_pairs:
            y["distinct"] = self.distinct_counts(spec)
        if row.order_stats:
            y["quantile"] = self.sample_quantiles(spec)
        return y

    def output_keys(self) -> tuple[str, ...]:
        """Key columns that appear in user-facing output frames."""
        return self.by

"""Incremental per-group order-statistic state (paper §5.3–§5.4).

The paper's estimator for ``median``/``quantile`` is the *sample* order
statistic over everything observed so far (the quantile analogue of
footnote 3's exact multisets).  The seed implementation kept the raw
(key, value) rows and re-ran ``group_codes`` + ``group_quantile`` over the
entire concatenated history on every snapshot read — the one remaining
O(total-consumed) read path (arXiv:2303.04103 §7.2 names per-message cost
tracking *partition* size as the invariant online aggregation must keep).

:class:`OrderStatState` replaces that buffer with per-slot sorted runs
keyed by the aggregate state's persistent
:class:`~repro.dataframe.groupby.Grouper` slot mapping:

* ``consume`` is O(|partial|): the incoming slot codes and values are
  recorded as a pending run — no touch of history, no key re-encoding.
* reads merge pending runs into a cached slot-sorted buffer.  Each pending
  run is sorted once — O(|partial| log |partial|) — and folded in with
  one batched binary search (every new value searches its own slot's
  segment, all at once) + one linear gather, so the only term that grows
  with history is a memcpy-speed copy of the merged buffer.
  Between snapshots with no new data the read is O(groups).
* quantiles come straight from the merged buffer through
  :func:`~repro.dataframe.groupby.slot_quantile` (the same interpolation
  the one-shot kernel uses), so exact mode is bit-identical to a
  from-scratch ``group_quantile`` over the full history.

Two modes:

* ``"exact"`` (default) — the full multiset, preserving footnote-3
  semantics; memory grows with consumed rows.
* ``"sketch"`` (opt-in) — a per-slot reservoir sample of bounded size
  (deterministically seeded), for bounded-memory operation at scale.
  Estimates become approximate, including the t = 1 final snapshot.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import QueryError
from repro.dataframe.groupby import (
    bisect_batch,
    slot_quantile,
    sorts_before,
)

#: Accepted order-statistic maintenance modes.
QUANTILE_MODES = ("exact", "sketch")

#: Default per-slot reservoir capacity in sketch mode.
DEFAULT_SKETCH_SIZE = 1024


def _slot_segments(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the contiguous slot segments of a slot-sorted
    code array."""
    starts = np.flatnonzero(np.r_[True, np.diff(slots) != 0])
    ends = np.r_[starts[1:], len(slots)]
    return starts, ends


class OrderStatState:
    """Per-slot value multiset (or sketch) answering quantile reads.

    Values are float64 and may contain NaN; NaN sorts last and counts
    toward the multiset size, matching the one-shot kernel.  Slots are
    dense ids handed out by the owning state's ``Grouper`` — arrays here
    only ever extend, mirroring the slot arrays in
    :class:`~repro.core.state.GroupedAggregateState`.
    """

    def __init__(
        self,
        mode: str = "exact",
        sketch_size: int = DEFAULT_SKETCH_SIZE,
        seed: int = 0,
    ) -> None:
        if mode not in QUANTILE_MODES:
            raise QueryError(
                f"unknown quantile_mode {mode!r}; expected one of "
                f"{QUANTILE_MODES}"
            )
        if mode == "sketch" and sketch_size < 2:
            raise QueryError("sketch_size must be >= 2")
        self.mode = mode
        self.sketch_size = int(sketch_size)
        self._rows_consumed = 0
        # exact mode: merged buffer sorted by (slot, value) + pending runs
        self._merged = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        # sketch mode: fixed-width reservoir matrix + per-slot counters
        self._rng = np.random.default_rng(zlib.crc32(b"orderstat") + seed)
        self._reservoir = np.empty((0, self.sketch_size), dtype=np.float64)
        self._fill = np.empty(0, dtype=np.int64)
        self._seen = np.empty(0, dtype=np.int64)
        self._sketch_sorted: np.ndarray | None = None  # read cache

    @property
    def n_values(self) -> int:
        """Rows folded in so far (multiset size across all slots)."""
        return self._rows_consumed

    def nbytes(self) -> int:
        """Buffer bytes held, including per-slot bookkeeping and read
        caches (peak-memory accounting)."""
        exact = self._merged.nbytes + self._counts.nbytes + sum(
            s.nbytes + v.nbytes for s, v in self._pending
        )
        sketch = (self._reservoir.nbytes + self._fill.nbytes
                  + self._seen.nbytes)
        if self._sketch_sorted is not None:
            sketch += self._sketch_sorted.nbytes
        return exact + sketch

    # -- updates ---------------------------------------------------------------
    def consume(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Fold one partial in: ``slots`` are dense Grouper codes aligned
        with ``values``.  O(|partial|) — exact mode just records the run;
        sketch mode updates the touched reservoirs."""
        if len(slots) == 0:
            return
        values = values.astype(np.float64, copy=False)
        self._rows_consumed += len(slots)
        if self.mode == "exact":
            self._pending.append((slots, values))
            return
        self._consume_sketch(slots, values)

    # -- exact mode ------------------------------------------------------------
    def _consolidate(self) -> None:
        """Merge pending runs into the slot-sorted buffer (amortized on
        read; a no-op between snapshots with no new data)."""
        if not self._pending:
            return
        if len(self._pending) == 1:
            p_slots, p_vals = self._pending[0]
        else:
            p_slots = np.concatenate([s for s, _ in self._pending])
            p_vals = np.concatenate([v for _, v in self._pending])
        self._pending = []
        order = np.lexsort((p_vals, p_slots))
        p_slots = p_slots[order]
        p_vals = p_vals[order]

        n_slots = max(len(self._counts), int(p_slots[-1]) + 1)
        old_counts = self._counts
        if len(old_counts) < n_slots:
            old_counts = np.concatenate(
                [old_counts,
                 np.zeros(n_slots - len(old_counts), dtype=np.int64)]
            )
        if self._merged.size == 0:
            self._merged = p_vals
        else:
            offsets = np.concatenate(
                ([0], np.cumsum(old_counts))
            )
            merged = self._merged
            # Every new value binary-searches its own slot's segment of
            # the merged buffer, all of them at once.
            positions = bisect_batch(
                offsets[p_slots], offsets[p_slots + 1],
                lambda at, new: sorts_before(merged[at], p_vals[new])[0],
            )
            # Linear two-way merge: scatter the new run into its gap
            # positions, fill the rest with the old buffer in order.
            target = positions + np.arange(len(p_vals), dtype=np.int64)
            out = np.empty(len(merged) + len(p_vals), dtype=np.float64)
            out[target] = p_vals
            keep = np.ones(len(out), dtype=bool)
            keep[target] = False
            out[keep] = merged
            self._merged = out
        self._counts = old_counts + np.bincount(
            p_slots, minlength=n_slots
        ).astype(np.int64)

    # -- sketch mode -----------------------------------------------------------
    def _grow_sketch(self, n_slots: int) -> None:
        grow = n_slots - len(self._fill)
        if grow <= 0:
            return
        self._reservoir = np.concatenate(
            [self._reservoir,
             np.empty((grow, self.sketch_size), dtype=np.float64)]
        )
        self._fill = np.concatenate(
            [self._fill, np.zeros(grow, dtype=np.int64)]
        )
        self._seen = np.concatenate(
            [self._seen, np.zeros(grow, dtype=np.int64)]
        )

    def _consume_sketch(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Algorithm-R reservoir update of every touched slot at once
        (stream order preserved by the stable sort): row ``t`` of a
        slot's stream fills cell ``t - 1`` while the reservoir has room,
        afterwards it replaces a uniformly drawn cell with probability
        ``k / t``."""
        self._sketch_sorted = None
        self._grow_sketch(int(slots.max()) + 1)
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        values = values[order]
        k = self.sketch_size
        starts, ends = _slot_segments(slots)
        lengths = ends - starts
        touched = slots[starts]
        stream = (self._seen[slots] + 1 + np.arange(len(slots))
                  - np.repeat(starts, lengths))
        cells = stream - 1
        late = np.flatnonzero(stream > k)
        accept = self._rng.random(len(late)) * stream[late] < k
        cells[late] = np.where(
            accept, self._rng.integers(0, k, size=len(late)), -1
        )
        writes = np.flatnonzero(cells >= 0)
        # Assignment order over repeated indices is unspecified, so keep
        # only the last write (in stream order) to each reservoir cell.
        flat = slots[writes] * k + cells[writes]
        _, last = np.unique(flat[::-1], return_index=True)
        writes = writes[len(writes) - 1 - last]
        self._reservoir[slots[writes], cells[writes]] = values[writes]
        self._seen[touched] += lengths
        self._fill[touched] = np.minimum(self._seen[touched], k)

    # -- reads -----------------------------------------------------------------
    def quantiles(self, q: float, n_slots: int) -> np.ndarray:
        """Per-slot sample quantile, NaN for slots with no values.  The
        result is indexed by dense slot id (length ``n_slots``)."""
        if self.mode == "exact":
            self._consolidate()
            counts = self._counts
            if len(counts) < n_slots:
                counts = np.concatenate(
                    [counts,
                     np.zeros(n_slots - len(counts), dtype=np.int64)]
                )
            offsets = np.concatenate(([0], np.cumsum(counts[:n_slots])))
            return slot_quantile(self._merged, offsets, q)
        return self._sketch_quantiles(q, n_slots)

    def _sketch_quantiles(self, q: float, n_slots: int) -> np.ndarray:
        if self._sketch_sorted is None:
            # Gather exactly the filled cells (a segmented arange into
            # the flat reservoir — never touching empty capacity), sort
            # them with one lexsort, and cache until the next consume so
            # repeated reads are O(groups).
            fill = self._fill
            total = int(fill.sum())
            offsets = np.concatenate(([0], np.cumsum(fill)))
            intra = (np.arange(total, dtype=np.int64)
                     - np.repeat(offsets[:-1], fill))
            rows = np.repeat(
                np.arange(len(fill), dtype=np.int64), fill
            )
            vals = self._reservoir.ravel()[
                rows * self.sketch_size + intra
            ]
            order = np.lexsort((vals, rows))
            self._sketch_sorted = vals[order]
        fills = np.zeros(n_slots, dtype=np.int64)
        known = min(n_slots, len(self._fill))
        fills[:known] = self._fill[:known]
        offsets = np.concatenate(([0], np.cumsum(fills)))
        return slot_quantile(self._sketch_sorted, offsets, q)

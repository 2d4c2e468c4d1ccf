"""Group-by kernels for the columnar DataFrame substrate.

The kernels are deliberately split into two layers:

* low-level code paths operating on dense group codes (``factorize``,
  ``group_sum`` and friends), used by the edf aggregate operator to maintain
  intrinsic states incrementally, and
* a high-level :func:`group_aggregate` used by the exact reference engine and
  by recompute (REPLACE) paths.

Aggregate results use the paper's intrinsic representations (Table 2):
``avg`` is carried as (sum, count), ``var``/``std`` as (count, sum, m2), and
``count_distinct`` as exact value sets — never sketches (paper footnote 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import QueryError, SchemaError
from repro.dataframe.frame import DataFrame
from repro.dataframe.schema import AttributeKind, Field, Schema, dtype_of

#: Aggregate function names accepted across the library (paper §3.1
#: grammar plus the §5.3 order statistics median/quantile and the
#: mergeable extensions sem/prod/first/last).
AGG_FUNCTIONS = (
    "sum",
    "count",
    "avg",
    "count_distinct",
    "min",
    "max",
    "var",
    "stddev",
    "sem",
    "prod",
    "first",
    "last",
    "median",
    "quantile",
)

#: pandas-style synonyms, normalized at AggSpec construction so every
#: downstream layer (state, inference, plan hashing) sees one canonical
#: name — ``F.std(x)`` and ``F.stddev(x)`` build α-equivalent plans.
AGG_SYNONYMS = {
    "std": "stddev",
    "mean": "avg",
    "nunique": "count_distinct",
}


@dataclass(frozen=True)
class AggSpec:
    """One aggregation request: ``agg(column) AS alias``.

    ``column`` may be ``None`` only for ``count`` (row count).
    ``param`` carries the quantile fraction for ``quantile`` (median is
    ``quantile`` with param 0.5).  Synonym names (``std``, ``mean``,
    ``nunique``) normalize to their canonical form on construction.
    """

    agg: str
    column: str | None
    alias: str
    param: float | None = None

    def __post_init__(self) -> None:
        if self.agg in AGG_SYNONYMS:
            object.__setattr__(self, "agg", AGG_SYNONYMS[self.agg])
        if self.agg not in AGG_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate {self.agg!r}; expected one of "
                f"{AGG_FUNCTIONS}"
            )
        if self.column is None and self.agg != "count":
            raise QueryError(f"aggregate {self.agg!r} requires a column")
        if self.agg == "quantile":
            if self.param is None or not 0.0 <= self.param <= 1.0:
                raise QueryError(
                    f"quantile requires param in [0, 1], got "
                    f"{self.param!r}"
                )

    @property
    def quantile_fraction(self) -> float:
        """The q of this order statistic (median = 0.5)."""
        if self.agg == "median":
            return 0.5
        if self.agg == "quantile":
            assert self.param is not None
            return self.param
        raise QueryError(f"{self.agg!r} is not a quantile aggregate")


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------

def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense-encode ``values``: returns (codes, uniques) with
    ``uniques[codes] == values`` and uniques sorted ascending."""
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques


def sorts_before(a: np.ndarray, b: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``(a < b, a == b)`` under numpy's sort order: NaN is
    the largest value and equal to itself."""
    less, same = a < b, a == b
    if a.dtype.kind == "f":
        nan_a, nan_b = np.isnan(a), np.isnan(b)
        less |= nan_b & ~nan_a
        same |= nan_a & nan_b
    return less, same


def _lex_step(before: np.ndarray, tied: np.ndarray,
              a: np.ndarray, b: np.ndarray) -> None:
    """Fold one more key column (most significant first) into a
    lexicographic row comparison, in place: ``before`` marks rows of
    ``a`` already known to sort before their row of ``b``, ``tied`` the
    rows equal on every column so far."""
    less, same = sorts_before(a, b)
    before |= tied & less
    tied &= same


#: Rows probed for key order before a full pass over a partial.
_ORDER_PROBE_ROWS = 64


def _sorted_run_starts(columns: Sequence[np.ndarray]) -> np.ndarray | None:
    """Where each run of equal keys starts, if the rows already are in
    ascending lexicographic key order; ``None`` as soon as a column
    shows a descent.  Unordered input almost always shows one within
    the first few rows, so those are probed before the full pass."""
    if len(columns[0]) > _ORDER_PROBE_ROWS and _sorted_run_starts(
        [column[:_ORDER_PROBE_ROWS] for column in columns]
    ) is None:
        return None
    n_pairs = len(columns[0]) - 1
    rising = np.zeros(n_pairs, dtype=bool)
    tied = np.ones(n_pairs, dtype=bool)
    for column in columns:
        _lex_step(rising, tied, column[:-1], column[1:])
        if not (rising | tied).all():
            return None
    return np.concatenate(([True], rising))


def group_codes(
    frame: DataFrame, keys: Sequence[str]
) -> tuple[np.ndarray, DataFrame, int]:
    """Compute dense group ids over one or more key columns.

    Returns ``(codes, key_frame, n_groups)`` where ``codes`` assigns every
    input row a group id in ``[0, n_groups)`` and ``key_frame`` holds one row
    of key values per group (ordered by group id, i.e. by key).

    Rows that arrive already sorted by the keys — every REPLACE snapshot
    an upstream aggregate emits, grouped on a prefix of its keys — are
    run-length encoded in O(rows · keys) comparisons; anything else is
    factorized column by column with ``np.unique``.  Both give the same
    codes and the same first-occurrence key rows.
    """
    if not keys:
        raise QueryError("group_codes requires at least one key column")
    key_frame = frame.select(list(keys))
    if frame.n_rows == 0:
        return np.empty(0, dtype=np.int64), key_frame, 0
    starts = _sorted_run_starts([frame.column(key) for key in keys])
    if starts is not None:
        first_index = np.flatnonzero(starts)
        dense = np.cumsum(starts, dtype=np.int64) - 1
        return dense, key_frame.take(first_index), len(first_index)
    combined: np.ndarray | None = None
    bound = 1  # combined codes lie in [0, bound)
    for key in keys:
        codes, uniques = factorize(frame.column(key))
        if combined is None:
            combined, bound = codes, len(uniques)
            continue
        if bound * len(uniques) > 1 << 62:
            # Re-densify (order-preserving) so the mixed-radix code
            # cannot wrap int64: then bound <= rows.
            ranks, combined = np.unique(combined, return_inverse=True)
            bound = len(ranks)
        # Lexicographic combination.
        combined = combined * np.int64(len(uniques)) + codes
        bound *= len(uniques)
    assert combined is not None
    uniques, first_index, dense = np.unique(
        combined, return_index=True, return_inverse=True
    )
    dense = dense.astype(np.int64, copy=False)
    return dense, key_frame.take(first_index), len(uniques)


def bisect_batch(lo: np.ndarray, hi: np.ndarray, before) -> np.ndarray:
    """Vectorised binary search, one independent search per query.

    Query ``i`` searches positions ``[lo[i], hi[i])`` of a sorted
    sequence; ``before(positions, queries)`` says, elementwise, whether
    the element at ``positions`` sorts strictly before query
    ``queries``.  Returns every query's leftmost insertion point
    (``np.searchsorted`` side ``"left"``).  Each round halves all live
    ranges with a handful of array operations: O(queries · log range),
    no per-query Python.
    """
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    live = np.flatnonzero(lo < hi)
    while len(live):
        mid = (lo[live] + hi[live]) >> 1
        right = before(mid, live)
        lo[live[right]] = mid[right] + 1
        hi[live[~right]] = mid[~right]
        live = live[lo[live] < hi[live]]
    return lo


#: Codes stay below 2**_CODE_BITS, so ``prefix << _CODE_BITS | code``
#: packs a (prefix code, column code) pair into one non-negative int64.
_CODE_BITS = 31


class _KeyIndex:
    """Persistent value → dense code index over one key array.

    ``keys`` holds the distinct values seen so far in ascending order
    (NaN last, one NaN) and ``codes[i]`` the code of ``keys[i]``; codes
    are handed out in order of first appearance and never change, so
    ``codes`` read in table order *is* the permutation that sorts the
    codes by value.
    """

    def __init__(self) -> None:
        self.keys: np.ndarray | None = None
        self.codes = np.empty(0, dtype=np.int64)

    def lookup(self, vals: np.ndarray) -> np.ndarray:
        """Codes of ``vals`` (duplicates allowed), registering unseen
        values: ``searchsorted`` against the table, then a sorted insert
        of the misses — O(|vals| log table + table) memcpy-speed."""
        if self.keys is None:
            hit = np.zeros(len(vals), dtype=bool)
            out = np.empty(len(vals), dtype=np.int64)
        else:
            pos = np.searchsorted(self.keys, vals)
            np.minimum(pos, len(self.keys) - 1, out=pos)
            found = self.keys[pos]
            hit = found == vals
            if vals.dtype.kind == "f":
                # NaN sorts last, so a NaN probe lands on the NaN entry.
                hit |= np.isnan(found) & np.isnan(vals)
            if hit.all():
                return self.codes[pos]
            out = np.where(hit, self.codes[pos], np.int64(-1))
        miss = ~hit
        new_keys, first, inverse = np.unique(
            vals[miss], return_index=True, return_inverse=True
        )
        n_old = len(self.codes)
        if n_old + len(new_keys) > 1 << _CODE_BITS:
            raise QueryError(
                f"more than 2**{_CODE_BITS} distinct group keys"
            )
        new_codes = np.empty(len(new_keys), dtype=np.int64)
        new_codes[np.argsort(first, kind="stable")] = np.arange(
            n_old, n_old + len(new_keys), dtype=np.int64
        )
        out[miss] = new_codes[inverse]
        if self.keys is None:
            self.keys, self.codes = new_keys, new_codes
        elif (self.keys.dtype == new_keys.dtype
              and new_keys.dtype.kind not in "US"):
            pos = np.searchsorted(self.keys, new_keys)
            self.keys = np.insert(self.keys, pos, new_keys)
            self.codes = np.insert(self.codes, pos, new_codes)
        else:
            # String widths may differ per message; np.insert would
            # truncate to the table's item size, so concat (which
            # promotes the width) and re-sort.
            merged = np.concatenate([self.keys, new_keys])
            order = np.argsort(merged, kind="stable")
            self.keys = merged[order]
            self.codes = np.concatenate([self.codes, new_codes])[order]
        return out


#: Most entries a direct-address slot table may have (int32 each, so
#: 4 MB); keys whose packed range needs more stay on the sorted /
#: searched path for good.
SLOT_TABLE_SIZE = 1 << 20


def table_key_columns(columns: Sequence[np.ndarray]
                      ) -> list[np.ndarray] | None:
    """``columns`` as int64 when every one holds integers, bools or
    dates (int64 days); otherwise ``None``.  uint64 is left out: its
    upper half would alias negative int64 keys."""
    out = []
    for column in columns:
        kind, size = column.dtype.kind, column.dtype.itemsize
        if kind not in "bi" and not (kind == "u" and size < 8):
            return None
        out.append(column.astype(np.int64, copy=False))
    return out


class SlotTable:
    """Direct-address map from integer key tuples to small ints.

    Key column ``j`` is laid out over ``[lows[j], lows[j] + 2**bits[j])``
    and a key tuple's index packs its per-column offsets, so finding a
    frame's slots is O(|frame| · keys) arithmetic plus one gather —
    no sort, no search.  ``entries[index]`` holds the slot + 1 (0: not
    registered).  The table never hands out a slot; it only remembers
    the ones its owner assigned: a :class:`Grouper`'s group slots, a
    :class:`~repro.dataframe.join.JoinIndex`'s build-key ranks.
    Zero-filled, so pages no key lands on are never touched.
    """

    @staticmethod
    def fits(bits: Sequence[int]) -> bool:
        """Whether a layout of these column widths stays within
        ``SLOT_TABLE_SIZE`` entries."""
        return 1 << sum(bits) <= SLOT_TABLE_SIZE

    def __init__(self, lows: list[int], bits: list[int]) -> None:
        self.lows = lows
        self.bits = bits
        self.entries = np.zeros(1 << sum(bits), dtype=np.int32)

    def index(self, columns: Sequence[np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
        """Every row's table index, and whether every key of the row
        lies inside the layout (the index is meaningless where not)."""
        # An offset that wraps int64 either turns negative (spills) or
        # lands past every key <= int64 max, on an empty entry.
        index = columns[0] - np.int64(self.lows[0])
        spill = index >> self.bits[0]
        for column, low, bits in zip(
            columns[1:], self.lows[1:], self.bits[1:]
        ):
            offset = column - np.int64(low)
            spill |= offset >> bits
            index <<= bits
            index |= offset
        return index, spill == 0

    def covers(self, j: int, lo: int, hi: int) -> bool:
        """Whether column ``j``'s layout spans keys ``lo..hi``."""
        return self.lows[j] <= lo and hi < self.lows[j] + (1 << self.bits[j])

    def lookup(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Slot of every row; -1 where its key tuple is not registered."""
        index, inside = self.index(columns)
        if inside.all():
            found = self.entries[index]
        else:
            found = np.where(
                inside, self.entries[np.where(inside, index, 0)], 0
            )
        return np.subtract(found, 1, dtype=np.int64)

    def insert(self, columns: Sequence[np.ndarray], first: int) -> bool:
        """Register the distinct key rows of ``columns`` as slots
        ``first, first + 1, ...``; ``False`` (and nothing registered)
        when a key falls outside the layout."""
        index, inside = self.index(columns)
        if not inside.all():
            return False
        self.entries[index] = np.arange(
            first + 1, first + 1 + len(index), dtype=np.int32
        )
        return True


class Grouper:
    """Incremental group factorizer: a persistent key → dense-slot mapping.

    One-shot :func:`group_codes` re-factorizes every row it is given, so
    using it to maintain accumulated state costs O(total groups) per
    partial.  A ``Grouper`` instead assigns each distinct key combination
    a stable slot the first time it appears and reuses it forever after:
    encoding a partial costs O(|partial| + new groups) — the incremental
    shape streaming state maintenance needs (paper §4.2).

    Slots are handed out in first-seen order (within one partial, in the
    partial's sorted-unique key order), so state arrays indexed by slot
    only ever *extend*; existing entries never move.

    Every key column has its own :class:`_KeyIndex`; with several key
    columns the per-column codes are folded left to right — (code of
    the first j columns, code of column j+1) packs into one int64 that
    a further ``_KeyIndex`` maps to the code of the first j+1 columns —
    and the last fold's code is the slot.  All of it is ``searchsorted``
    over sorted tables: no per-row Python at any key width.

    :meth:`sort_perm` keeps the slots' key order incrementally: new
    slots are sorted among themselves and inserted at positions found by
    a batched lexicographic binary search, so a read never re-sorts the
    groups it already ordered.

    While every key column holds integers, bools or dates and their
    packed range fits ``SLOT_TABLE_SIZE``, a :class:`SlotTable`
    memoises the slots: a partial whose keys were all seen costs one
    gather.  Rows it misses (unseen keys, values outside its range) go
    down the sorted path above — a partial with no hit at all goes whole
    — which stays the only code that assigns slots, so slot numbering,
    :meth:`key_frame` and :meth:`sort_perm` are the same with or without
    the table.
    """

    def __init__(self, keys: Sequence[str]) -> None:
        if not keys:
            raise QueryError("Grouper requires at least one key column")
        self.keys = tuple(keys)
        self._columns = [_KeyIndex() for _ in self.keys]
        self._folds = [_KeyIndex() for _ in self.keys[1:]]
        self._n_groups = 0
        self._key_parts: list[DataFrame] = []
        self._key_frame: DataFrame | None = None
        self._perm = np.empty(0, dtype=np.int64)
        # The slot memo: each key column's (lowest, highest) key so far
        # (None for good once the keys cannot be tabled), the last table
        # built and whether it still holds every slot.
        self._ranges: list[tuple[int, int]] | None = []
        self._table: SlotTable | None = None
        self._table_current = False

    @property
    def n_groups(self) -> int:
        return self._n_groups

    def encode(self, frame: DataFrame) -> np.ndarray:
        """Dense slot ids (into the persistent slot space) for every row
        of ``frame``, registering previously-unseen keys as new slots."""
        if self._ranges and frame.n_rows:
            columns = self._table_columns(frame)
            table = None if columns is None else self._current_table(
                columns)
            if table is not None:
                slots = table.lookup(columns)
                miss = slots < 0
                if not miss.any():
                    return slots
                if not miss.all():
                    slots[miss] = self._assign(
                        frame.select(self.keys).mask(miss)
                    )
                    return slots
        return self._assign(frame)

    def _assign(self, frame: DataFrame) -> np.ndarray:
        """The sorted-table path: slots of ``frame``'s rows, handing out
        new ones to unseen keys."""
        codes, local_keys, n_local = group_codes(frame, self.keys)
        if n_local == 0:
            return codes
        slots = self._columns[0].lookup(local_keys.column(self.keys[0]))
        for key, column, fold in zip(
            self.keys[1:], self._columns[1:], self._folds
        ):
            slots = fold.lookup(
                (slots << _CODE_BITS)
                | column.lookup(local_keys.column(key))
            )
        new_mask = slots >= self._n_groups
        if new_mask.any():
            first = self._n_groups
            new_keys = local_keys.mask(new_mask)
            self._n_groups += new_keys.n_rows
            self._key_parts.append(new_keys)
            self._key_frame = None
            if self._ranges is not None:
                self._remember(new_keys, first)
        return slots[codes]

    def _table_columns(self, frame: DataFrame) -> list[np.ndarray] | None:
        """``frame``'s key columns as :func:`table_key_columns` gives
        them; ``None`` gives the table up for good."""
        columns = table_key_columns([frame.column(k) for k in self.keys])
        if columns is None:
            self._ranges, self._table = None, None
        return columns

    def _remember(self, new_keys: DataFrame, first: int) -> None:
        """Note slots ``first, first + 1, ...`` (``new_keys``' rows):
        widen the key ranges — giving the table up for good once they
        alone need more than ``SLOT_TABLE_SIZE`` entries — and scatter
        the slots into the table while they fit its layout; once one
        does not, the table is stale until :meth:`_current_table`
        rebuilds it."""
        columns = self._table_columns(new_keys)
        if columns is None:
            return
        # group_codes hands new keys over key-sorted: the first column's
        # range is its ends.
        first_key = columns[0]
        ranges = [(int(first_key[0]), int(first_key[-1]))] + [
            (int(column.min()), int(column.max())) for column in columns[1:]
        ]
        if self._ranges:
            ranges = [(min(lo, old_lo), max(hi, old_hi)) for (lo, hi), (
                old_lo, old_hi) in zip(ranges, self._ranges)]
        if not SlotTable.fits([(hi - lo).bit_length() for lo, hi in ranges]):
            self._ranges, self._table = None, None
            return
        self._ranges = ranges
        if self._table_current:
            assert self._table is not None
            self._table_current = self._table.insert(columns, first)

    def _current_table(self, columns: list[np.ndarray]
                       ) -> SlotTable | None:
        """The table holding every slot, or ``None`` when the partial
        cannot hit it: its first key column misses the range seen so
        far (an all-new ascending stream), or the keys need more than
        ``SLOT_TABLE_SIZE`` entries (the table is then given up).

        A stale table is rebuilt from :meth:`key_frame` in O(groups);
        every column that outgrew the old layout at least doubles its
        width, so that happens at most ``log2(SLOT_TABLE_SIZE)`` times."""
        assert self._ranges
        lo, hi = self._ranges[0]
        if columns[0].min() > hi or columns[0].max() < lo:
            return None
        if self._table_current:
            return self._table
        old = self._table
        lows, bits = [], []
        for j, (lo, hi) in enumerate(self._ranges):
            width = (hi - lo).bit_length()
            if old is not None and old.covers(j, lo, hi):
                lo, width = old.lows[j], old.bits[j]
            elif old is not None:
                width = max(width, old.bits[j] + 1)
            lows.append(lo)
            bits.append(width)
        if not SlotTable.fits(bits):
            self._ranges, self._table = None, None
            return None
        table = SlotTable(lows, bits)
        every_key = self._table_columns(self.key_frame())
        if every_key is None:
            return None
        table.insert(every_key, 0)
        self._table, self._table_current = table, True
        return table

    def key_frame(self) -> DataFrame:
        """One row of key values per slot, ordered by slot id."""
        if self._key_frame is None:
            if not self._key_parts:
                raise QueryError("grouper holds no groups yet")
            frame = DataFrame.concat(self._key_parts)
            self._key_parts = [frame]
            self._key_frame = frame
        return self._key_frame

    def sort_perm(self) -> np.ndarray:
        """Slot ids in ascending key order — ``np.lexsort`` over the key
        columns, first key most significant, NaN last.  The array is
        replaced, never written, when slots are added, so callers may
        cache on its identity; they must not modify it."""
        if len(self.keys) == 1:
            return self._columns[0].codes
        n_sorted = len(self._perm)
        if n_sorted < self._n_groups:
            columns = [self.key_frame().column(k) for k in self.keys]
            fresh = n_sorted + np.lexsort(
                [c[n_sorted:] for c in reversed(columns)]
            )
            perm = self._perm

            def before(positions: np.ndarray, queries: np.ndarray):
                old, new = perm[positions], fresh[queries]
                result = np.zeros(len(old), dtype=bool)
                tied = np.ones(len(old), dtype=bool)
                for column in columns:
                    _lex_step(result, tied, column[old], column[new])
                return result

            at = bisect_batch(
                np.zeros(len(fresh), dtype=np.int64),
                np.full(len(fresh), n_sorted, dtype=np.int64),
                before,
            )
            self._perm = np.insert(perm, at, fresh)
        return self._perm


# ---------------------------------------------------------------------------
# Dense-code kernels
# ---------------------------------------------------------------------------

def group_count(codes: np.ndarray, n_groups: int,
                valid: np.ndarray | None = None) -> np.ndarray:
    """Per-group row counts; ``valid`` optionally masks rows (NaN skipping)."""
    if valid is None:
        return np.bincount(codes, minlength=n_groups).astype(np.int64)
    return np.bincount(
        codes[valid], minlength=n_groups
    ).astype(np.int64)


def counted_rows(values: np.ndarray | None) -> np.ndarray | None:
    """The rows a ``count`` counts, as a ``group_count`` mask: only a
    float column can hold NaN, so its non-NaN rows; every row (``None``)
    of any other column, or of ``count(*)``."""
    if values is None or values.dtype.kind != "f":
        return None
    return ~np.isnan(values)


def group_sum(codes: np.ndarray, n_groups: int,
              values: np.ndarray) -> np.ndarray:
    """Per-group sums as float64 (NaN values are skipped, SQL-style)."""
    vals = values.astype(np.float64, copy=False)
    finite = ~np.isnan(vals)
    if finite.all():
        return np.bincount(codes, weights=vals, minlength=n_groups)
    return np.bincount(
        codes[finite], weights=vals[finite], minlength=n_groups
    )


def _segment_reduce(
    codes: np.ndarray,
    n_groups: int,
    values: np.ndarray,
    reducer: np.ufunc,
    empty_fill: float,
) -> np.ndarray:
    """Sort-based segmented reduction (used for min/max)."""
    out = np.full(n_groups, empty_fill, dtype=np.float64)
    if len(codes) == 0:
        return out
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_vals = values[order].astype(np.float64, copy=False)
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate(([0], boundaries))
    present = sorted_codes[starts]
    out[present] = reducer.reduceat(sorted_vals, starts)
    return out


def group_min(codes: np.ndarray, n_groups: int,
              values: np.ndarray) -> np.ndarray:
    return _segment_reduce(codes, n_groups, values, np.minimum, np.nan)


def group_max(codes: np.ndarray, n_groups: int,
              values: np.ndarray) -> np.ndarray:
    return _segment_reduce(codes, n_groups, values, np.maximum, np.nan)


def group_prod(codes: np.ndarray, n_groups: int,
               values: np.ndarray) -> np.ndarray:
    """Per-group products as float64 (NaN skipped; empty/all-NaN groups
    yield the multiplicative identity 1.0, pandas semantics)."""
    vals = values.astype(np.float64, copy=False)
    out = np.ones(n_groups, dtype=np.float64)
    valid = ~np.isnan(vals)
    if not valid.any():
        return out
    codes, vals = codes[valid], vals[valid]
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    sorted_vals = vals[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_codes)) + 1)
    )
    out[sorted_codes[starts]] = np.multiply.reduceat(sorted_vals, starts)
    return out


def _group_edge_valid(
    codes: np.ndarray, n_groups: int, values: np.ndarray, last: bool
) -> np.ndarray:
    """First (or last) non-NaN value per group in row order; NaN for
    groups with no valid value (pandas ``first``/``last`` semantics)."""
    vals = values.astype(np.float64, copy=False)
    out = np.full(n_groups, np.nan, dtype=np.float64)
    valid = ~np.isnan(vals)
    if not valid.any():
        return out
    codes, vals = codes[valid], vals[valid]
    order = np.argsort(codes, kind="stable")  # stable: row order in group
    sorted_codes = codes[order]
    sorted_vals = vals[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_codes)) + 1)
    )
    if last:
        ends = np.concatenate((starts[1:], [len(sorted_codes)])) - 1
        out[sorted_codes[starts]] = sorted_vals[ends]
    else:
        out[sorted_codes[starts]] = sorted_vals[starts]
    return out


def group_first_valid(codes: np.ndarray, n_groups: int,
                      values: np.ndarray) -> np.ndarray:
    return _group_edge_valid(codes, n_groups, values, last=False)


def group_last_valid(codes: np.ndarray, n_groups: int,
                     values: np.ndarray) -> np.ndarray:
    return _group_edge_valid(codes, n_groups, values, last=True)


def group_var_components(
    codes: np.ndarray, n_groups: int, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group (count, sum, m2) where m2 = sum((x - mean)^2).

    This is the mergeable representation of variance (paper Table 2): two
    (count, sum, m2) triples combine with the Chan et al. parallel update.
    """
    vals = values.astype(np.float64, copy=False)
    # Count only non-NaN values: sum/sumsq skip NaN (SQL-style), so a raw
    # row count would understate the variance of NaN-bearing groups and
    # disagree with the streaming mergeable state (which always counts
    # valid values only).
    count = group_count(codes, n_groups, valid=~np.isnan(vals)).astype(
        np.float64
    )
    total = group_sum(codes, n_groups, vals)
    sumsq = group_sum(codes, n_groups, vals * vals)
    with np.errstate(invalid="ignore", divide="ignore"):
        m2 = sumsq - np.where(count > 0, total * total / count, 0.0)
    return count, total, np.maximum(m2, 0.0)


def group_nunique(codes: np.ndarray, n_groups: int,
                  values: np.ndarray) -> np.ndarray:
    """Per-group exact count of distinct values."""
    if len(codes) == 0:
        return np.zeros(n_groups, dtype=np.int64)
    value_codes, _ = factorize(values)
    pair = codes * np.int64(value_codes.max() + 1) + value_codes
    unique_pairs = np.unique(pair)
    owner = unique_pairs // np.int64(value_codes.max() + 1)
    return np.bincount(owner, minlength=n_groups).astype(np.int64)


def slot_quantile(sorted_values: np.ndarray, offsets: np.ndarray,
                  q: float) -> np.ndarray:
    """Per-slot sample quantile over a slot-sorted value buffer.

    ``sorted_values`` holds every slot's values in one flat array, sorted
    within each slot (NaN last, numpy sort order); ``offsets`` has length
    ``n_slots + 1`` with slot ``s`` occupying
    ``sorted_values[offsets[s]:offsets[s + 1]]``.  Linear interpolation
    (the numpy 'linear' method), NaN for empty slots.  This is the kernel
    the incremental order-statistic state reads through — sharing it with
    :func:`group_quantile` keeps the two paths bit-identical.
    """
    n_slots = len(offsets) - 1
    out = np.full(n_slots, np.nan, dtype=np.float64)
    counts = np.diff(offsets)
    present = counts > 0
    if not present.any():
        return out
    starts = np.asarray(offsets[:-1][present], dtype=np.int64)
    n = counts[present]
    # Positions are computed *within* each segment so the result is
    # independent of where the segment sits in the buffer — the same
    # multiset yields bitwise the same quantile under any slot ordering
    # (incremental slot order vs one-shot sorted-key order).
    position = q * (n - 1)
    lo = np.floor(position).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = position - lo
    out[present] = (sorted_values[starts + lo] * (1.0 - frac)
                    + sorted_values[starts + hi] * frac)
    return out


def group_quantile(codes: np.ndarray, n_groups: int,
                   values: np.ndarray, q: float) -> np.ndarray:
    """Per-group sample quantile with linear interpolation (the numpy
    'linear' method), NaN for empty groups."""
    if len(codes) == 0:
        return np.full(n_groups, np.nan, dtype=np.float64)
    vals = values.astype(np.float64, copy=False)
    order = np.lexsort((vals, codes))
    sorted_vals = vals[order]
    counts = np.bincount(codes, minlength=n_groups)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return slot_quantile(sorted_vals, offsets, q)


# ---------------------------------------------------------------------------
# High-level aggregation
# ---------------------------------------------------------------------------

def _evaluate_spec(
    spec: AggSpec, frame: DataFrame, codes: np.ndarray, n_groups: int
) -> np.ndarray:
    if spec.agg == "count":
        values = None if spec.column is None else frame.column(spec.column)
        return group_count(codes, n_groups, counted_rows(values))
    values = frame.column(spec.column)  # type: ignore[arg-type]
    if spec.agg == "sum":
        return group_sum(codes, n_groups, values)
    if spec.agg == "avg":
        total = group_sum(codes, n_groups, values)
        count = group_count(
            codes, n_groups,
            valid=~np.isnan(values.astype(np.float64, copy=False)),
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(count > 0, total / np.maximum(count, 1), np.nan)
    if spec.agg == "min":
        return group_min(codes, n_groups, values)
    if spec.agg == "max":
        return group_max(codes, n_groups, values)
    if spec.agg == "count_distinct":
        return group_nunique(codes, n_groups, values)
    if spec.agg in ("var", "stddev", "sem"):
        count, _total, m2 = group_var_components(codes, n_groups, values)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = np.where(count > 1, m2 / np.maximum(count - 1, 1), np.nan)
            if spec.agg == "sem":
                return np.sqrt(var / np.maximum(count, 1))
        return np.sqrt(var) if spec.agg == "stddev" else var
    if spec.agg == "prod":
        return group_prod(codes, n_groups, values)
    if spec.agg == "first":
        return group_first_valid(codes, n_groups, values)
    if spec.agg == "last":
        return group_last_valid(codes, n_groups, values)
    if spec.agg in ("median", "quantile"):
        return group_quantile(codes, n_groups, values,
                              spec.quantile_fraction)
    raise QueryError(f"unsupported aggregate {spec.agg!r}")


def group_aggregate(
    frame: DataFrame,
    by: Sequence[str],
    specs: Sequence[AggSpec],
) -> DataFrame:
    """SQL ``GROUP BY`` over the frame: one output row per key combination.

    Output columns: the key columns (constant attributes) followed by one
    mutable attribute per :class:`AggSpec`.  Keys appear in first-occurrence
    sorted-unique order (deterministic).
    """
    if not specs:
        raise QueryError("group_aggregate requires at least one AggSpec")
    names = {s.alias for s in specs}
    if len(names) != len(specs):
        raise SchemaError("duplicate aggregate aliases in group_aggregate")
    codes, key_frame, n_groups = group_codes(frame, by)
    data: dict[str, np.ndarray] = {
        name: key_frame.column(name) for name in key_frame.column_names
    }
    fields = list(key_frame.schema.fields)
    for spec in specs:
        result = _evaluate_spec(spec, frame, codes, n_groups)
        data[spec.alias] = result
        fields.append(
            Field(spec.alias, dtype_of(result), AttributeKind.MUTABLE)
        )
    return DataFrame(data, schema=Schema(fields))


def distinct_rows(
    frame: DataFrame, subset: Sequence[str] | None = None
) -> DataFrame:
    """Drop duplicate rows (optionally judged on a subset of columns).

    The first occurrence of each distinct key combination is kept, in
    first-seen order of the group machinery (deterministic).
    """
    if frame.n_rows == 0:
        return frame
    keys = list(subset) if subset is not None else list(frame.column_names)
    _codes, _key_frame, _n = group_codes(frame, keys)
    # group_codes returns first-occurrence indices internally; recompute here
    # to keep full rows rather than only key columns.
    combined = _codes
    _uniques, first_index = np.unique(combined, return_index=True)
    return frame.take(np.sort(first_index))


def global_aggregate(frame: DataFrame, specs: Sequence[AggSpec]) -> DataFrame:
    """Aggregate the whole frame into a single row (no grouping keys)."""
    codes = np.zeros(frame.n_rows, dtype=np.int64)
    data: dict[str, np.ndarray] = {}
    fields = []
    for spec in specs:
        result = _evaluate_spec(spec, frame, codes, 1)
        data[spec.alias] = result
        fields.append(
            Field(spec.alias, dtype_of(result), AttributeKind.MUTABLE)
        )
    return DataFrame(data, schema=Schema(fields))

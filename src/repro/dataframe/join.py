"""Join kernels: hash (equi) joins plus semi/anti/left variants.

Three physical strategies live here:

* :func:`hash_join` — one-shot vectorized join: both key sides are
  factorized into one shared code space, the right side is sorted, and
  probe rows expand to match ranges via ``searchsorted``.  Cost is
  O(|left| + |right|) *per call*, which is the right shape for the exact
  reference engines but the wrong one for streaming operators.
* :class:`JoinIndex` — the incremental strategy: the build side is
  factorized and sorted **once**, after which each probe partition pays
  only a lookup against the prebuilt index: one gather into a
  direct-address table of the build keys when they are integers packing
  into ``SLOT_TABLE_SIZE`` entries (O(|partition| · keys)), a dictionary
  ``searchsorted`` per key column otherwise (O(|partition| log |build
  uniques|)).  This is what the streaming hash join uses so that
  per-message cost tracks partition size rather than total data consumed
  (paper §3.2 / §7.2).
* :func:`merge_join` — one key column, no factorization: each left key
  finds its run of equal right keys by binary search into the right
  side, which is argsorted only when it is not already ascending.  The
  progressive merge join *operator* (paper §3.2) runs it on every
  watermark release of its clustered buffers; see
  ``repro.engine.ops.join``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError, SchemaError
from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import SlotTable, table_key_columns
from repro.dataframe.schema import DType, Field, Schema

JOIN_METHODS = ("inner", "left", "semi", "anti")


def _check_key_dtypes(left: np.ndarray, right: np.ndarray) -> None:
    if left.dtype.kind != right.dtype.kind and not (
        left.dtype.kind in "if" and right.dtype.kind in "if"
    ):
        raise SchemaError(
            f"join key dtypes are incompatible: "
            f"{left.dtype} vs {right.dtype}"
        )


def shared_codes(
    left: Sequence[np.ndarray], right: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Encode multi-column keys from both sides into one dense code space."""
    if len(left) != len(right):
        raise QueryError("join key column counts differ between sides")
    n_left = len(left[0]) if left else 0
    combined_left: np.ndarray | None = None
    combined_right: np.ndarray | None = None
    bound = 1  # combined codes lie in [0, bound)
    for l_col, r_col in zip(left, right):
        _check_key_dtypes(l_col, r_col)
        both = np.concatenate([l_col, r_col])
        uniques, codes = np.unique(both, return_inverse=True)
        codes = codes.astype(np.int64, copy=False)
        l_codes, r_codes = codes[:n_left], codes[n_left:]
        if combined_left is None:
            combined_left, combined_right = l_codes, r_codes
            bound = len(uniques)
            continue
        if bound * len(uniques) > 1 << 62:
            # Re-densify both sides (order-preserving) so the
            # mixed-radix code cannot wrap int64: then bound <= rows.
            ranks, dense = np.unique(
                np.concatenate([combined_left, combined_right]),
                return_inverse=True,
            )
            combined_left, combined_right = dense[:n_left], dense[n_left:]
            bound = len(ranks)
        width = np.int64(len(uniques))
        combined_left = combined_left * width + l_codes
        combined_right = combined_right * width + r_codes
        bound *= len(uniques)
    if combined_left is None:
        raise QueryError("join requires at least one key column")
    return combined_left, combined_right


def _expand_matches(
    left_codes: np.ndarray,
    sorted_right: np.ndarray,
    order: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Matching (li, ri) pairs of probe codes against a presorted build
    side (``sorted_right = right_codes[order]``)."""
    starts = np.searchsorted(sorted_right, left_codes, side="left")
    ends = np.searchsorted(sorted_right, left_codes, side="right")
    return _expand_ranges(starts, ends, order)


def _expand_ranges(
    starts: np.ndarray, ends: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    left_idx = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    # Vectorized "concatenate ranges": for each match slot, its offset within
    # the probe row's match range plus that range's start.
    cum = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(cum, counts)
    right_idx = order[np.repeat(starts, counts) + within]
    return left_idx, right_idx


def inner_join_indices(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Matching row-index pairs (li, ri) for an inner equi-join."""
    order = np.argsort(right_codes, kind="stable")
    return _expand_matches(left_codes, right_codes[order], order)


def match_counts(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> np.ndarray:
    """Number of right-side matches for every left row."""
    sorted_right = np.sort(right_codes, kind="stable")
    starts = np.searchsorted(sorted_right, left_codes, side="left")
    ends = np.searchsorted(sorted_right, left_codes, side="right")
    return ends - starts


def semi_join_mask(left_codes: np.ndarray,
                   right_codes: np.ndarray) -> np.ndarray:
    """Boolean mask of left rows that have at least one right match."""
    return match_counts(left_codes, right_codes) > 0


def anti_join_mask(left_codes: np.ndarray,
                   right_codes: np.ndarray) -> np.ndarray:
    """Boolean mask of left rows with no right match."""
    return match_counts(left_codes, right_codes) == 0


def _null_fill(dtype: DType, n: int) -> np.ndarray:
    """Fill values for unmatched left-join rows.

    Numeric columns (including dates) are promoted to float64 NaN; strings
    become the empty string; booleans become False.  Downstream ``count``
    aggregates skip NaN, which is what TPC-H Q13 relies on.
    """
    if dtype in (DType.INT64, DType.FLOAT64, DType.DATE):
        return np.full(n, np.nan, dtype=np.float64)
    if dtype == DType.STRING:
        return np.full(n, "", dtype="U1")
    if dtype == DType.BOOL:
        return np.zeros(n, dtype=np.bool_)
    raise SchemaError(f"cannot null-fill dtype {dtype!r}")


def _resolve_output_names(
    left: DataFrame, right: DataFrame, right_keys: Sequence[str],
    suffix: str,
) -> dict[str, str]:
    """Right-side output names: key columns are dropped (they duplicate the
    left keys); collisions on non-key names get ``suffix`` appended."""
    taken = set(left.column_names)
    mapping: dict[str, str] = {}
    for name in right.column_names:
        if name in right_keys:
            continue
        out = name if name not in taken else name + suffix
        if out in taken:
            raise SchemaError(
                f"column {out!r} collides even after applying suffix "
                f"{suffix!r}"
            )
        mapping[name] = out
        taken.add(out)
    return mapping


def _assemble_inner(
    left: DataFrame,
    right: DataFrame,
    li: np.ndarray,
    ri: np.ndarray,
    name_map: dict[str, str],
) -> DataFrame:
    """Gather matched pairs into the inner-join output frame."""
    data = {n: left.column(n)[li] for n in left.column_names}
    fields = list(left.schema.fields)
    for src, dst in name_map.items():
        data[dst] = right.column(src)[ri]
        fields.append(right.schema.field(src).renamed(dst))
    return DataFrame(data, schema=Schema(fields))


def _assemble_left(
    left: DataFrame,
    right: DataFrame,
    li: np.ndarray,
    ri: np.ndarray,
    unmatched: np.ndarray,
    name_map: dict[str, str],
) -> DataFrame:
    """Matched pairs plus unmatched left rows with null fills."""
    n_unmatched = int(unmatched.sum())
    data = {
        n: np.concatenate([left.column(n)[li], left.column(n)[unmatched]])
        for n in left.column_names
    }
    fields = list(left.schema.fields)
    for src, dst in name_map.items():
        src_field = right.schema.field(src)
        matched_vals = right.column(src)[ri]
        fill = _null_fill(src_field.dtype, n_unmatched)
        if src_field.dtype in (DType.INT64, DType.DATE):
            matched_vals = matched_vals.astype(np.float64)
            out_dtype = DType.FLOAT64
        else:
            out_dtype = src_field.dtype
        data[dst] = np.concatenate([matched_vals, fill])
        fields.append(Field(dst, out_dtype, src_field.kind))
    return DataFrame(data, schema=Schema(fields))


class JoinIndex:
    """A build-side hash-join index, factorized and sorted exactly once.

    Construction factorizes every build key column into a sorted value
    dictionary, combines the per-column codes into one dense code space
    (re-densified before a multiply could wrap int64), and sorts the
    combined build codes (the "hash table").  Probing a partition then
    costs one range expansion against the presorted build codes plus
    finding each probe row's run of equal build codes, O(partition) and
    independent of how many partitions have been probed before:

    * while every key column on both sides holds integers, bools or
      dates and the distinct build key tuples pack into a
      :class:`SlotTable` (``SLOT_TABLE_SIZE`` entries), the table maps a
      probe key to its build rank and two gathers into the run bounds
      give the range — no search;
    * otherwise a ``searchsorted`` per key column against the
      dictionaries (probe values absent from the build dictionary get
      the sentinel code -1, which matches nothing) and a pair of range
      searches in the sorted codes.

    Both find the same ranges, so the output does not depend on the
    path.  Output assembly matches :func:`hash_join` exactly for every
    ``how`` mode; the streaming join operators rely on that equivalence.
    """

    def __init__(
        self,
        build: DataFrame,
        build_on: Sequence[str],
        suffix: str = "_right",
    ) -> None:
        if not build_on:
            raise QueryError("join requires at least one key column")
        self.build = build
        self.build_on = tuple(build_on)
        self.suffix = suffix
        self._dicts: list[np.ndarray] = []
        # Per key column after the first: the running codes the build
        # re-densified through before folding that column in, or None.
        self._folds: list[np.ndarray | None] = []
        combined: np.ndarray | None = None
        bound = 1  # combined codes lie in [0, bound)
        for key in self.build_on:
            uniques, codes = np.unique(
                build.column(key), return_inverse=True
            )
            codes = codes.astype(np.int64, copy=False)
            self._dicts.append(uniques)
            width = max(len(uniques), 1)
            if combined is None:
                combined, bound = codes, width
                continue
            ranks = None
            if bound * width > 1 << 62:
                ranks, combined = np.unique(combined, return_inverse=True)
                bound = len(ranks)
            self._folds.append(ranks)
            combined = combined * np.int64(width) + codes
            bound *= width
        assert combined is not None
        self._order = np.argsort(combined, kind="stable")
        self._sorted_codes = combined[self._order]
        self._table, self._bounds = self._rank_table()

    def _rank_table(self) -> tuple[SlotTable | None, np.ndarray]:
        """A :class:`SlotTable` mapping every distinct build key tuple to
        its rank among them, and the ``bounds`` of each rank's run in the
        sorted codes: rank ``r`` runs ``bounds[r]:bounds[r + 1]``, and a
        trailing 0 makes a miss (rank -1) read the empty run ``0:0``.
        No table when the build is empty, a key column is not
        integer-like or the layout needs more than ``SLOT_TABLE_SIZE``
        entries."""
        untabled = None, np.empty(0, dtype=np.int64)
        columns = table_key_columns(
            [self.build.column(key) for key in self.build_on]
        )
        if columns is None or not len(self._sorted_codes):
            return untabled
        starts = np.flatnonzero(
            np.diff(self._sorted_codes, prepend=np.int64(-1))
        )
        firsts = self._order[starts]
        keys = [column[firsts] for column in columns]
        lows = [int(key.min()) for key in keys]
        bits = [(int(key.max()) - low).bit_length()
                for key, low in zip(keys, lows)]
        if not SlotTable.fits(bits):
            return untabled
        table = SlotTable(lows, bits)
        table.insert(keys, 0)
        return table, np.concatenate([starts, [len(self._sorted_codes), 0]])

    # -- probe-side encoding -----------------------------------------------------
    def _probe_keys(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> list[np.ndarray]:
        """The probe key columns, checked against the build's."""
        probe_on = tuple(probe_on)
        if len(probe_on) != len(self.build_on):
            raise QueryError("join key column counts differ between sides")
        columns = [probe.column(key) for key in probe_on]
        for column, uniques in zip(columns, self._dicts):
            _check_key_dtypes(column, uniques)
        return columns

    def _probe_codes(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Dictionary-encode probe keys into the build code space; rows
        whose keys are absent from the build get code -1."""
        if not len(self._dicts[0]):
            return np.full(len(columns[0]), -1, dtype=np.int64)
        combined: np.ndarray | None = None
        valid: np.ndarray | None = None
        for col, uniques, ranks in zip(
            columns, self._dicts, [None, *self._folds]
        ):
            pos = np.searchsorted(uniques, col)
            pos = np.minimum(pos, len(uniques) - 1).astype(
                np.int64, copy=False
            )
            hit = uniques[pos] == col
            if uniques.dtype.kind == "f" and col.dtype.kind == "f":
                # np.unique collapses NaNs into one dictionary entry
                # (sorted last); match NaN probes to it the way the
                # shared-factorization kernel does.
                hit |= np.isnan(uniques[pos]) & np.isnan(col)
            if combined is None:
                combined = pos
            else:
                if ranks is not None:
                    # The build re-densified here: a running code it
                    # never saw matches nothing.
                    at = np.minimum(
                        np.searchsorted(ranks, combined), len(ranks) - 1
                    )
                    hit &= ranks[at] == combined
                    combined = at
                combined = combined * np.int64(len(uniques)) + pos
            valid = hit if valid is None else valid & hit
        assert combined is not None and valid is not None
        return np.where(valid, combined, np.int64(-1))

    def _match_ranges(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every probe row's run of matching build rows in the sorted
        build codes, as (starts, ends); an empty run is no match."""
        columns = self._probe_keys(probe, probe_on)
        if self._table is not None:
            keys = table_key_columns(columns)
            if keys is not None:
                rank = self._table.lookup(keys)
                return self._bounds[rank], self._bounds[rank + 1]
        codes = self._probe_codes(columns)
        return (np.searchsorted(self._sorted_codes, codes, side="left"),
                np.searchsorted(self._sorted_codes, codes, side="right"))

    def match_counts(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> np.ndarray:
        """Number of build-side matches for every probe row."""
        starts, ends = self._match_ranges(probe, probe_on)
        return ends - starts

    def probe_indices(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Matching (probe_row, build_row) index pairs for one partition."""
        starts, ends = self._match_ranges(probe, probe_on)
        return _expand_ranges(starts, ends, self._order)

    # -- probe-side joins --------------------------------------------------------
    def probe_inner(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> DataFrame:
        li, ri = self.probe_indices(probe, probe_on)
        name_map = _resolve_output_names(
            probe, self.build, self.build_on, self.suffix
        )
        return _assemble_inner(probe, self.build, li, ri, name_map)

    def probe_left(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> DataFrame:
        # Find the match ranges once; the unmatched mask falls out of
        # the same ranges the pair expansion uses.
        starts, ends = self._match_ranges(probe, probe_on)
        li, ri = _expand_ranges(starts, ends, self._order)
        unmatched = ends == starts
        name_map = _resolve_output_names(
            probe, self.build, self.build_on, self.suffix
        )
        return _assemble_left(probe, self.build, li, ri, unmatched,
                              name_map)

    def probe_semi(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> DataFrame:
        return probe.mask(self.match_counts(probe, probe_on) > 0)

    def probe_anti(
        self, probe: DataFrame, probe_on: Sequence[str]
    ) -> DataFrame:
        return probe.mask(self.match_counts(probe, probe_on) == 0)

    def probe(
        self, probe: DataFrame, probe_on: Sequence[str], how: str = "inner"
    ) -> DataFrame:
        """Join one probe partition against the prebuilt index."""
        if how == "inner":
            return self.probe_inner(probe, probe_on)
        if how == "left":
            return self.probe_left(probe, probe_on)
        if how == "semi":
            return self.probe_semi(probe, probe_on)
        if how == "anti":
            return self.probe_anti(probe, probe_on)
        raise QueryError(
            f"unknown join method {how!r}; expected {JOIN_METHODS}"
        )


def hash_join(
    left: DataFrame,
    right: DataFrame,
    left_on: Sequence[str],
    right_on: Sequence[str],
    how: str = "inner",
    suffix: str = "_right",
) -> DataFrame:
    """Equi-join two frames in one shot.

    ``how`` is one of ``inner``, ``left``, ``semi``, ``anti``.  Semi/anti
    return left columns only.  For ``left``, unmatched rows carry NaN /
    empty-string fills in right-side columns (numeric right columns are
    promoted to float64).  Streaming callers that probe many partitions
    against one build side should use :class:`JoinIndex` instead.
    """
    if how not in JOIN_METHODS:
        raise QueryError(f"unknown join method {how!r}; expected {JOIN_METHODS}")
    l_codes, r_codes = shared_codes(
        [left.column(k) for k in left_on],
        [right.column(k) for k in right_on],
    )
    if how == "semi":
        return left.mask(semi_join_mask(l_codes, r_codes))
    if how == "anti":
        return left.mask(anti_join_mask(l_codes, r_codes))

    li, ri = inner_join_indices(l_codes, r_codes)
    name_map = _resolve_output_names(left, right, right_on, suffix)

    if how == "inner":
        return _assemble_inner(left, right, li, ri, name_map)

    # how == "left": matched pairs plus unmatched left rows with fills.
    unmatched = anti_join_mask(l_codes, r_codes)
    return _assemble_left(left, right, li, ri, unmatched, name_map)


def is_ascending(keys: np.ndarray) -> bool:
    """True when ``keys`` is in ascending order with no NaN, so binary
    search can run on it as it stands (an unsorted or NaN-holding
    array needs a sort, which puts NaNs last)."""
    if not len(keys):
        return True
    if keys.dtype.kind == "f" and np.isnan(keys[0]):
        return False
    return bool(np.all(keys[:-1] <= keys[1:]))


def merge_join(
    left: DataFrame,
    right: DataFrame,
    left_on: Sequence[str],
    right_on: Sequence[str],
    suffix: str = "_right",
) -> DataFrame:
    """Inner equi-join on one key column by binary search into the
    right side.

    Each left key finds its run of equal right keys with two
    ``searchsorted`` calls on the raw keys — one plus an equality check
    when the right keys are unique, as an orders buffer's are; the
    right side is stable argsorted first only when it is not already
    ascending (a clustered buffer usually is).  There is no shared
    factorization, so a call costs O(|right|) to check the order plus
    O(|left| log |right|) — against :func:`hash_join`'s ``np.unique``
    over both sides and a sort of the right codes.  The output is
    byte-identical to ``hash_join(..., how="inner")``: left rows in
    order, each followed by its matches in right-row order; int and
    float keys compare by value and NaN keys match NaN keys, as
    ``np.unique`` decides there.
    """
    if len(left_on) != 1 or len(right_on) != 1:
        raise QueryError("merge join requires a single key pair")
    l_keys = left.column(left_on[0])
    r_keys = right.column(right_on[0])
    _check_key_dtypes(l_keys, r_keys)
    if l_keys.dtype.kind != r_keys.dtype.kind:
        # Order and compare int against float keys in the dtype
        # ``np.unique`` would see them in.
        r_keys = r_keys.astype(np.result_type(l_keys, r_keys),
                               copy=False)
    order = None if is_ascending(r_keys) else np.argsort(r_keys,
                                                         kind="stable")
    sorted_right = r_keys if order is None else r_keys[order]
    starts = np.searchsorted(sorted_right, l_keys, side="left")
    if (len(sorted_right) and sorted_right[-1] == sorted_right[-1]
            and bool(np.all(sorted_right[:-1] < sorted_right[1:]))):
        # Unique, NaN-free right keys: a left row meets one right row
        # or none.
        found = sorted_right[np.minimum(starts, len(sorted_right) - 1)]
        li = np.flatnonzero(found == l_keys)
        ri = starts[li]
    else:
        ends = np.searchsorted(sorted_right, l_keys, side="right")
        counts = ends - starts
        li = np.repeat(np.arange(len(l_keys), dtype=np.int64), counts)
        # Each pair's right row: its run's start plus its offset in it.
        offsets = np.cumsum(counts) - counts
        ri = (np.arange(len(li), dtype=np.int64)
              + np.repeat(starts - offsets, counts))
    if order is not None:
        ri = order[ri]
    name_map = _resolve_output_names(left, right, right_on, suffix)
    return _assemble_inner(left, right, li, ri, name_map)

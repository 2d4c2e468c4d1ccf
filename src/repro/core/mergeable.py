"""Mergeable intrinsic representations per aggregate (paper Table 2).

Every aggregate ``op`` admits a state representation and a merge operation
⊎ such that ``op(δ1 ∪ δ2) = op(δ1) ⊎ op(δ2)``:

==================  ===========================  =================
aggregate           intrinsic representation      merge
==================  ===========================  =================
count               count by key                  sum by key
sum                 sum by key                    sum by key
avg                 (sum, count) by key           sum by key
min / max           min / max by key              min / max by key
var / stddev / sem  (count, sum, sumsq) by key    sum by key
prod                product by key                product by key
first / last        first/last non-NaN by key     keep/replace
count_distinct      exact value set by key        set union by key
median / quantile   exact value multiset by key   multiset union
==================  ===========================  =================

This module *is* that table.  :data:`PARTS` holds the eight slot parts a
representation is built from — each with its per-partial kernel, its
merge ⊎ and the merge identity a fresh slot starts at — and
:data:`AGGREGATES` maps every name of
:data:`~repro.dataframe.groupby.AGG_FUNCTIONS` to the parts it keeps,
whether it keeps distinct pairs or an order-statistic state instead, and
its estimator f(y, x, x̂) (§5.3) with, where there is one, its §6 σ rule.

Variance keeps raw sums-of-squares (rather than centered m2) so that *all*
numeric merges reduce to elementwise sum/min/max after a key-based
re-group, and count-distinct keeps exact per-group value sets (paper
footnote 3 — never sketches), represented as a distinct (key, value) pairs
frame whose union is concat + distinct.

Order statistics (``median``/``quantile``) carry no slot parts; their
intrinsic representation is a per-slot
:class:`~repro.core.orderstat.OrderStatState` — the exact multiset as
incrementally-merged sorted runs by default, or an opt-in bounded-memory
reservoir sketch (``quantile_mode="sketch"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.dataframe.groupby import (
    AggSpec,
    counted_rows,
    group_count,
    group_first_valid,
    group_last_valid,
    group_max,
    group_min,
    group_prod,
    group_sum,
)
from repro.core import ci as ci_mod
from repro.core.estimators import (
    estimate_avg,
    estimate_count,
    estimate_count_distinct,
    estimate_order_statistic,
    estimate_sem,
    estimate_sum,
    estimate_variance,
)

#: Name of the synthetic per-group input-cardinality column x_i(t).
CARDINALITY_COLUMN = "__card__"


def part_column(alias: str, part: str) -> str:
    """State column holding one spec's part: ``__<alias>__<part>``."""
    return f"__{alias}__{part}"


# ---------------------------------------------------------------------------
# Slot parts: kernel over one partial, merge into the accumulator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Part:
    """One per-slot array of an intrinsic state.

    ``kernel(codes, n_slots, values)`` evaluates the part over one
    partial (``values`` is ``None`` for ``count(*)``);
    ``merge(acc, part, seen, present)`` folds that into the accumulator
    in place, where ``seen`` marks slots already holding rows of this
    version and ``present`` those also in the partial; ``identity`` is
    the value of a slot no row has reached."""

    kernel: Callable[[np.ndarray, int, np.ndarray | None], np.ndarray]
    merge: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]
    identity: float


def _count(codes, n_slots, values):
    return group_count(codes, n_slots,
                       counted_rows(values)).astype(np.float64)


def _sumsq(codes, n_slots, values):
    values = values.astype(np.float64, copy=False)
    return group_sum(codes, n_slots, values * values)


def _add(acc, part, seen, present):
    acc += part


def _multiply(acc, part, seen, present):
    acc *= part


def _extreme(reducer):
    """``min``/``max``: a slot with no rows yet in this version takes the
    partial's value; one present on both sides reduces (NaN from genuine
    NaN input values still propagates)."""
    def merge(acc, part, seen, present):
        np.copyto(acc, part, where=~seen)
        acc[present] = reducer(acc[present], part[present])
    return merge


def _keep_first(acc, part, seen, present):
    take = np.isnan(acc) & ~np.isnan(part)
    acc[take] = part[take]


def _take_last(acc, part, seen, present):
    take = ~np.isnan(part)
    acc[take] = part[take]


#: ``first`` keeps the accumulator once it holds a non-NaN value,
#: ``last`` overwrites it wherever the partial saw one — both in
#: message-arrival order, matching pandas first/last over rows in
#: encounter order.
PARTS: dict[str, Part] = {
    "count": Part(_count, _add, 0.0),
    "sum": Part(group_sum, _add, 0.0),
    "sumsq": Part(_sumsq, _add, 0.0),
    "min": Part(group_min, _extreme(np.minimum), np.nan),
    "max": Part(group_max, _extreme(np.maximum), np.nan),
    "prod": Part(group_prod, _multiply, 1.0),
    "first": Part(group_first_valid, _keep_first, np.nan),
    "last": Part(group_last_valid, _take_last, np.nan),
}


# ---------------------------------------------------------------------------
# Aggregates: parts kept, estimator, σ rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reading:
    """What one spec's estimator reads at one emission (§5.3, §6).

    ``y`` holds the kept parts by name, plus ``"distinct"`` (observed
    distinct counts) or ``"quantile"`` (sample quantiles) for the
    aggregates that keep those states, all aligned with the state
    frame's rows; ``x`` is the observed group cardinality, ``x_hat`` the
    estimated final one.  ``fpc`` is the finite-population correction
    1 − t: the observed rows are a sample *without replacement* of the
    final data, so sampling variance shrinks by it and vanishes at
    completion (Fig 10a: the CI converges onto the exact answer)."""

    spec: AggSpec
    y: Mapping[str, np.ndarray]
    x: np.ndarray
    x_hat: np.ndarray
    fpc: float
    var_x_hat: np.ndarray | None


@dataclass(frozen=True)
class Aggregate:
    """One row of Table 2.

    ``moments`` are extra parts kept when the state tracks moments for
    the CI extension (§6 derives the initial variances of sum/avg from
    them via the CLT).  ``sigma(reading, estimate)`` is the §6 σ rule;
    an aggregate without one reports NaN."""

    parts: tuple[str, ...]
    estimate: Callable[[Reading], np.ndarray]
    moments: tuple[str, ...] = ()
    sigma: Callable[[Reading, np.ndarray], np.ndarray] | None = None
    distinct_pairs: bool = False
    order_stats: bool = False


def _estimate_count(r: Reading) -> np.ndarray:
    if r.spec.column is None:
        return estimate_count(r.x_hat)
    return estimate_sum(r.y["count"], r.x, r.x_hat)


def _sigma_count(r: Reading, estimate: np.ndarray) -> np.ndarray:
    return np.sqrt(r.var_x_hat)


def _sigma_sum(r: Reading, estimate: np.ndarray) -> np.ndarray:
    s2 = ci_mod.value_variance(r.y["count"], r.y["sum"], r.y["sumsq"])
    var_y = ci_mod.var_partial_sum(r.x, s2) * r.fpc
    return np.sqrt(
        ci_mod.var_sum(r.y["sum"], r.x, r.x_hat, var_y, r.var_x_hat)
    )


def _sigma_avg(r: Reading, estimate: np.ndarray) -> np.ndarray:
    s2 = ci_mod.value_variance(r.y["count"], r.y["sum"], r.y["sumsq"])
    return np.sqrt(ci_mod.var_avg(s2, r.y["count"]) * r.fpc)


def _sigma_count_distinct(r: Reading, estimate: np.ndarray) -> np.ndarray:
    observed = r.y["distinct"]
    var_y = ci_mod.proxy_var_distinct_count(observed, estimate)
    return np.sqrt(ci_mod.var_count_distinct(
        observed, r.x, r.x_hat, estimate, var_y, r.var_x_hat
    ))


def _stddev(r: Reading) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.sqrt(
            estimate_variance(r.y["count"], r.y["sum"], r.y["sumsq"])
        )


def _latest(part: str) -> Callable[[Reading], np.ndarray]:
    """The merged value itself, no growth scaling.  For min/max this is
    f_order; for prod, scaling a running product by a cardinality ratio
    has no unbiasedness story (the estimate would grow exponentially in
    group size), and first/last are point observations that only settle
    or track — all converge to the exact answer at t = 1."""
    return lambda r: estimate_order_statistic(r.y[part])


_VARIANCE_PARTS = ("count", "sum", "sumsq")

#: Every aggregate of the grammar.  Interval estimation is out of scope
#: for the extreme and other order statistics (GEV fitting / bootstrap;
#: "unstable" CIs in the paper) and for dispersion statistics, so those
#: rows carry no σ rule.
AGGREGATES: dict[str, Aggregate] = {
    "sum": Aggregate(
        ("sum",), lambda r: estimate_sum(r.y["sum"], r.x, r.x_hat),
        moments=("count", "sumsq"), sigma=_sigma_sum),
    "count": Aggregate(("count",), _estimate_count, sigma=_sigma_count),
    "avg": Aggregate(
        ("sum", "count"),
        lambda r: estimate_avg(r.y["sum"], r.y["count"]),
        moments=("sumsq",), sigma=_sigma_avg),
    "count_distinct": Aggregate(
        (), lambda r: estimate_count_distinct(r.y["distinct"], r.x,
                                              r.x_hat),
        sigma=_sigma_count_distinct, distinct_pairs=True),
    "min": Aggregate(("min",), _latest("min")),
    "max": Aggregate(("max",), _latest("max")),
    "var": Aggregate(_VARIANCE_PARTS, lambda r: estimate_variance(
        r.y["count"], r.y["sum"], r.y["sumsq"])),
    "stddev": Aggregate(_VARIANCE_PARTS, _stddev),
    "sem": Aggregate(_VARIANCE_PARTS, lambda r: estimate_sem(
        r.y["count"], r.y["sum"], r.y["sumsq"])),
    "prod": Aggregate(("prod",), _latest("prod")),
    "first": Aggregate(("first",), _latest("first")),
    "last": Aggregate(("last",), _latest("last")),
    # Sample quantiles are asymptotically unbiased (§5.4, van der Vaart
    # 21.2): the latest observed order statistic.
    "median": Aggregate((), lambda r: r.y["quantile"], order_stats=True),
    "quantile": Aggregate((), lambda r: r.y["quantile"],
                          order_stats=True),
}


def kept_parts(spec: AggSpec, track_moments: bool) -> tuple[str, ...]:
    """The slot parts ``spec``'s state keeps, in state-column order."""
    row = AGGREGATES[spec.agg]
    return row.parts + row.moments if track_moments else row.parts

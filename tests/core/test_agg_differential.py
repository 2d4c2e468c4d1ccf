"""Differential testing of the widened aggregate surface.

Every aggregate is checked against a pure-numpy oracle implementing
pandas groupby semantics (NaN skipped; ``prod`` of an empty/all-NaN
group is 1.0; ``first``/``last`` take the first/last *valid* value;
``sem``/``std``/``var`` use ddof=1) on hypothesis-generated random
frames including NaNs and empty groups.  Two paths are exercised:

* the one-shot eager kernels (``DataFrame.aggregate``), and
* the streaming mergeable state — the same rows split into arbitrary
  chunk boundaries, folded through ``GroupedAggregateState`` delta by
  delta and read back through ``AggregateInference`` at t = 1 — which
  must agree with the one-shot answer (mergeability, paper Table 2).

The same chunked state, built again with the CI moments and read with a
``CIConfig`` at some t in (0, 1), must leave every one of the 14
estimates byte-identical and report a NaN σ exactly for the aggregates
without an interval rule.

When a real pandas is importable the oracle itself is cross-checked;
the container image ships without pandas, so that test usually skips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import AGG_FUNCTIONS, AggSpec
from repro.core.ci import CIConfig, sigma_column
from repro.core.growth import GrowthModel
from repro.core.inference import AggregateInference
from repro.core.mergeable import AGGREGATES
from repro.core.state import GroupedAggregateState

try:
    import pandas
except ImportError:  # pragma: no cover - image ships without pandas
    pandas = None

#: Aggregates under differential test (the PR's additions plus the
#: pre-existing moments family they share state with).
AGGS = ("sum", "avg", "var", "stddev", "sem", "prod", "first", "last")


# ---------------------------------------------------------------------------
# Oracle (pandas groupby semantics in plain numpy)
# ---------------------------------------------------------------------------

def oracle(agg: str, values: np.ndarray) -> float:
    """The expected aggregate of one group's raw values."""
    valid = values[~np.isnan(values)]
    n = len(valid)
    if agg == "sum":
        return valid.sum() if n else 0.0
    if agg == "prod":
        return valid.prod() if n else 1.0
    if agg == "first":
        return valid[0] if n else np.nan
    if agg == "last":
        return valid[-1] if n else np.nan
    if agg == "avg":
        return valid.mean() if n else np.nan
    if n < 2:
        return np.nan  # var/stddev/sem with ddof=1
    var = valid.var(ddof=1)
    if agg == "var":
        return var
    if agg == "stddev":
        return np.sqrt(var)
    if agg == "sem":
        return np.sqrt(var / n)
    raise AssertionError(agg)


@st.composite
def grouped_data(draw):
    """(keys, values) arrays with NaNs, ties, and singleton groups."""
    n = draw(st.integers(min_value=1, max_value=60))
    keys = draw(
        st.lists(st.integers(min_value=0, max_value=5),
                 min_size=n, max_size=n)
    )
    values = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, width=32),
                st.just(float("nan")),
            ),
            min_size=n, max_size=n,
        )
    )
    return (np.asarray(keys, dtype=np.int64),
            np.asarray(values, dtype=np.float64))


def _assert_close(got: float, want: float, label: str) -> None:
    if np.isnan(want):
        assert np.isnan(got), f"{label}: expected NaN, got {got}"
    else:
        assert np.isclose(got, want, rtol=1e-6, atol=1e-9), (
            f"{label}: got {got}, oracle says {want}"
        )


# ---------------------------------------------------------------------------
# One-shot kernels vs oracle
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=grouped_data())
def test_eager_aggregates_match_oracle(data):
    keys, values = data
    frame = DataFrame({"k": keys, "v": values})
    out = frame.aggregate({"v": list(AGGS)}, by=["k"])
    for i, k in enumerate(out.column("k")):
        group = values[keys == k]
        for agg in AGGS:
            _assert_close(
                out.column(f"{agg}_v")[i], oracle(agg, group),
                f"{agg} of group {k}",
            )


@settings(max_examples=30, deadline=None)
@given(data=grouped_data())
def test_global_aggregates_match_oracle(data):
    _keys, values = data
    frame = DataFrame({"v": values})
    out = frame.aggregate({"v": list(AGGS)})
    for agg in AGGS:
        _assert_close(out.column(f"{agg}_v")[0], oracle(agg, values),
                      f"global {agg}")


# ---------------------------------------------------------------------------
# Mergeable state (chunked deltas) vs one-shot
# ---------------------------------------------------------------------------

@st.composite
def chunked_data(draw):
    keys, values = draw(grouped_data())
    n = len(keys)
    n_cuts = draw(st.integers(min_value=0, max_value=min(4, n - 1)))
    cuts = sorted(
        draw(
            st.lists(st.integers(min_value=1, max_value=n - 1),
                     min_size=n_cuts, max_size=n_cuts)
        )
    ) if n > 1 else []
    return keys, values, [0, *cuts, n]


def chunked_state(data, specs, track_moments=False):
    keys, values, bounds = data
    state = GroupedAggregateState(("k",), specs,
                                  track_moments=track_moments)
    for lo, hi in zip(bounds, bounds[1:]):
        if hi > lo:
            state.consume_delta(
                DataFrame({"k": keys[lo:hi], "v": values[lo:hi]})
            )
    return state


@settings(max_examples=60, deadline=None)
@given(data=chunked_data())
def test_merged_state_matches_oracle(data):
    """Arbitrary delta boundaries must not change any final value."""
    keys, values, bounds = data
    specs = [AggSpec(agg, "v", f"{agg}_v") for agg in AGGS]
    state = chunked_state(data, specs)
    inference = AggregateInference(GrowthModel(prior_w=1.0))
    out = inference.infer(state, 1.0)
    for i, k in enumerate(out.column("k")):
        group = values[keys == k]
        for agg in AGGS:
            _assert_close(
                out.column(f"{agg}_v")[i], oracle(agg, group),
                f"merged {agg} of group {k} (chunks {bounds})",
            )


def test_aggregate_table_covers_the_grammar():
    assert tuple(AGGREGATES) == AGG_FUNCTIONS


#: Aggregates with a §6 interval rule; every other σ is NaN.
INTERVAL_AGGS = ("count", "sum", "avg", "count_distinct")


@settings(max_examples=60, deadline=None)
@given(data=chunked_data(),
       t=st.floats(min_value=0.01, max_value=0.99))
def test_ci_never_moves_an_estimate(data, t):
    """CI adds moments to the state and σ columns to the output; every
    estimate stays byte for byte what the CI-off run reads."""
    specs = [AggSpec(agg, "v", f"{agg}_v",
                     param=0.9 if agg == "quantile" else None)
             for agg in AGG_FUNCTIONS]
    off = AggregateInference(GrowthModel(prior_w=1.0)).infer(
        chunked_state(data, specs), t)
    on = AggregateInference(GrowthModel(prior_w=1.0), ci=CIConfig()).infer(
        chunked_state(data, specs, track_moments=True), t)
    for spec in specs:
        estimate = on.column(spec.alias)
        assert estimate.tobytes() == off.column(spec.alias).tobytes(), (
            spec.agg)
        sigma = np.isnan(on.column(sigma_column(spec.alias)))
        if spec.agg in INTERVAL_AGGS:
            assert not (sigma & ~np.isnan(estimate)).any(), spec.agg
        else:
            assert sigma.all(), spec.agg


# ---------------------------------------------------------------------------
# Oracle vs real pandas (when available)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(pandas is None, reason="pandas not installed")
@settings(max_examples=40, deadline=None)
@given(data=grouped_data())
def test_oracle_matches_pandas(data):
    keys, values = data
    series = pandas.DataFrame({"k": keys, "v": values}).groupby("k")["v"]
    mapped = {
        "sum": "sum", "avg": "mean", "var": "var", "stddev": "std",
        "sem": "sem", "prod": "prod", "first": "first", "last": "last",
    }
    for agg, pandas_name in mapped.items():
        expected = getattr(series, pandas_name)()
        for k in np.unique(keys):
            _assert_close(
                oracle(agg, values[keys == k]), expected.loc[k],
                f"oracle {agg} vs pandas {pandas_name} (group {k})",
            )

"""Engine-level property tests: the 2C invariants under arbitrary data
and partitionings: convergence (1), unbiased growth-scaled estimates
(2) and decaying expected error (3) — README.md's introduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import F, WakeContext, col
from repro.dataframe import AggSpec, DataFrame, group_aggregate
from repro.storage import Catalog, write_table


def build_catalog(tmp_path, rows, rows_per_partition):
    ks, vs = zip(*rows)
    frame = DataFrame(
        {
            "k": np.array(ks, dtype=np.int64),
            "v": np.array(vs, dtype=np.float64),
        }
    )
    catalog = Catalog()
    write_table(catalog, tmp_path, "t", frame,
                rows_per_partition=rows_per_partition,
                primary_key=[])
    return catalog, frame


rows_strategy = st.lists(
    st.tuples(st.integers(0, 6), st.floats(-100, 100)),
    min_size=2, max_size=60,
)


@given(rows=rows_strategy, rpp=st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_shuffle_agg_exact_under_any_partitioning(rows, rpp,
                                                  tmp_path_factory):
    """Invariant 1 (convergence): the engine's t=1 grouped aggregate
    equals the one-shot kernel for any table and chunking."""
    tmp_path = tmp_path_factory.mktemp("prop")
    catalog, frame = build_catalog(tmp_path, rows, rpp)
    ctx = WakeContext(catalog)
    plan = ctx.table("t").agg(
        F.sum("v").alias("s"), F.count(None).alias("n"), by=["k"]
    )
    final = ctx.run(plan, capture_all=False).get_final()
    expected = group_aggregate(
        frame, ["k"],
        [AggSpec("sum", "v", "s"), AggSpec("count", None, "n")],
    )
    got = {
        k: (s, n)
        for k, s, n in zip(final.column("k").tolist(),
                           final.column("s").tolist(),
                           final.column("n").tolist())
    }
    for k, s, n in zip(expected.column("k").tolist(),
                       expected.column("s").tolist(),
                       expected.column("n").tolist()):
        assert got[k][0] == pytest.approx(s, rel=1e-9, abs=1e-6)
        assert got[k][1] == pytest.approx(float(n))


@given(rows=rows_strategy, rpp=st.integers(1, 20))
@settings(max_examples=25, deadline=None)
def test_filter_agg_pipeline_exact(rows, rpp, tmp_path_factory):
    """Deep pipeline convergence: filter -> agg -> filter-on-mutable."""
    tmp_path = tmp_path_factory.mktemp("prop2")
    catalog, frame = build_catalog(tmp_path, rows, rpp)
    ctx = WakeContext(catalog)
    plan = (
        ctx.table("t")
        .filter(col("v") > 0)
        .agg(F.sum("v").alias("s"), by=["k"])
        .filter(col("s") > 10)
    )
    final = ctx.run(plan, capture_all=False).get_final()
    kept = frame.mask(frame.column("v") > 0)
    expected = group_aggregate(kept, ["k"], [AggSpec("sum", "v", "s")])
    expected = expected.mask(expected.column("s") > 10)
    got = dict(zip(final.column("k").tolist(),
                   final.column("s").tolist()))
    exp = dict(zip(expected.column("k").tolist(),
                   expected.column("s").tolist()))
    assert set(got) == set(exp)
    for k in exp:
        assert got[k] == pytest.approx(exp[k], rel=1e-9, abs=1e-6)


class TestStatisticalInvariants:
    """Invariants 2–3: unbiasedness and decaying expected error of
    growth-scaled estimates, over random partition arrival orders."""

    N_SEEDS = 24

    @pytest.fixture(scope="class")
    def big_catalog(self, tmp_path_factory):
        rng = np.random.default_rng(123)
        n = 4_000
        frame = DataFrame(
            {
                "g": rng.integers(0, 3, size=n).astype(np.int64),
                "v": rng.normal(50.0, 20.0, size=n),
            }
        )
        catalog = Catalog()
        write_table(catalog, tmp_path_factory.mktemp("stat"), "t",
                    frame, rows_per_partition=250, primary_key=[])
        return catalog, frame

    def collect_errors(self, big_catalog):
        catalog, frame = big_catalog
        exact = float(frame.column("v").sum())
        per_snapshot: list[list[float]] = []
        for seed in range(self.N_SEEDS):
            ctx = WakeContext(catalog, partition_shuffle_seed=seed)
            edf = ctx.run(ctx.table("t").agg(F.sum("v").alias("s")))
            errors = [
                (float(s.frame.column("s")[0]) - exact) / exact
                for s in edf.snapshots
            ]
            per_snapshot.append(errors)
        return np.array(per_snapshot)  # [seed, snapshot]

    def test_unbiased_in_expectation(self, big_catalog):
        errors = self.collect_errors(big_catalog)
        # mean signed relative error across shuffles ~ 0 at every stage
        mean_err = errors.mean(axis=0)
        spread = errors.std(axis=0) / np.sqrt(errors.shape[0])
        for stage in range(errors.shape[1] - 1):
            assert abs(mean_err[stage]) < max(4 * spread[stage], 1e-3), (
                f"stage {stage}: biased estimate "
                f"({mean_err[stage]:.4f} ± {spread[stage]:.4f})"
            )

    def test_expected_error_decays(self, big_catalog):
        errors = np.abs(self.collect_errors(big_catalog))
        mean_abs = errors.mean(axis=0)
        early = mean_abs[:3].mean()
        late = mean_abs[-4:-1].mean()
        assert late < early, (
            f"expected |error| should shrink: early={early:.4f} "
            f"late={late:.4f}"
        )
        assert mean_abs[-1] == pytest.approx(0.0, abs=1e-12)

"""Tests for the growth-mode ablation knob on aggregates (§5.2)."""

import pytest

from repro import F, WakeContext
from repro.engine.ops import AggregateOperator
from repro.dataframe import AggSpec
from repro.errors import QueryError


class TestGrowthModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(QueryError, match="growth_mode"):
            AggregateOperator("a", [AggSpec("sum", "x", "s")],
                              growth_mode="quadratic")

    def test_modes_exposed(self):
        assert AggregateOperator.GROWTH_MODES == (
            "fitted", "uniform", "none")


class TestGrowthModeBehaviour:
    def total(self, catalog):
        return catalog.table("sales").read_all().column("qty").sum()

    def run_mode(self, catalog, mode):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(
            F.sum("qty").alias("s"), growth=mode
        )
        return ctx.run(plan)

    def test_uniform_scales_by_inverse_t(self, catalog):
        edf = self.run_mode(catalog, "uniform")
        first = edf.snapshots[0]
        raw_fraction = first.t
        # uniform: estimate = raw / t exactly
        expected_scale = 1.0 / raw_fraction
        # raw partial sum = estimate / expected_scale
        estimate = first.frame.column("s")[0]
        assert estimate == pytest.approx(
            self.total(catalog), rel=0.6
        )
        assert expected_scale > 1.0

    def test_none_reports_raw_partials(self, catalog):
        edf = self.run_mode(catalog, "none")
        first = edf.snapshots[0]
        # unscaled: the first estimate is roughly t * total
        assert first.frame.column("s")[0] == pytest.approx(
            self.total(catalog) * first.t, rel=0.5
        )

    @pytest.mark.parametrize("mode", ["fitted", "uniform", "none"])
    def test_all_modes_converge_exactly(self, catalog, mode):
        edf = self.run_mode(catalog, mode)
        assert edf.get_final().column("s")[0] == pytest.approx(
            self.total(catalog)
        )

    def test_fitted_tracks_uniform_on_linear_stream(self, catalog):
        fitted = self.run_mode(catalog, "fitted")
        uniform = self.run_mode(catalog, "uniform")
        # by mid-stream the fitted power should be ~1 (linear growth)
        for f, u in zip(fitted.snapshots[2:], uniform.snapshots[2:]):
            assert f.frame.column("s")[0] == pytest.approx(
                u.frame.column("s")[0], rel=0.15
            )

    def test_api_rejects_unknown_growth(self, catalog):
        ctx = WakeContext(catalog)
        with pytest.raises(QueryError):
            plan = ctx.table("sales").agg(
                F.sum("qty").alias("s"), growth="bogus"
            )
            ctx.run(plan)

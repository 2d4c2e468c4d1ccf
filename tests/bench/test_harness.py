"""Tests for the experiment harness and report formatting."""

import pytest

from repro import F, WakeContext
from repro.bench import run_wake
from repro.bench.report import banner, format_table
from repro.dataframe import AggSpec, group_aggregate


class TestRunWake:
    def test_quality_trace(self, catalog, sales_frame):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(
            F.sum("qty").alias("total"), by=["cust"]
        )
        exact = group_aggregate(sales_frame, ["cust"],
                                [AggSpec("sum", "qty", "total")])
        run = run_wake(ctx, plan, exact, keys=["cust"],
                       values=["total"])
        assert len(run.quality) == len(run.edf)
        assert run.quality[-1].mape == pytest.approx(0.0, abs=1e-9)
        assert run.quality[-1].recall == 100.0
        assert run.first_latency <= run.final_latency

    def test_time_to_error_requires_recall(self, catalog, sales_frame):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(
            F.sum("qty").alias("total"), by=["cust"]
        )
        exact = group_aggregate(sales_frame, ["cust"],
                                [AggSpec("sum", "qty", "total")])
        run = run_wake(ctx, plan, exact, keys=["cust"],
                       values=["total"])
        t = run.time_to_error(1000.0)  # generous threshold
        assert t is not None
        assert t <= run.final_latency + 1e-6

    def test_memory_tracking(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").sum("qty")
        run = run_wake(ctx, plan, track_memory=True)
        assert run.peak_bytes > 0

    def test_error_series_shape(self, catalog, sales_frame):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("total"))
        exact = run_wake(ctx, plan).edf.get_final()
        run = run_wake(ctx, plan, exact, keys=[], values=["total"])
        series = run.error_series()
        assert len(series) == len(run.edf)
        walls = [w for w, _ in series]
        assert walls == sorted(walls)


class TestLatencyRow:
    def make(self):
        from repro.bench.harness import LatencyRow

        return LatencyRow(
            query="q01", wake_first=0.01, wake_final=0.2,
            exact_memory=0.05, exact_scan=0.3, first_mape=2.5,
        )

    def test_speedup(self):
        assert self.make().first_speedup_vs_scan == pytest.approx(30.0)

    def test_slowdown(self):
        assert self.make().final_slowdown_vs_memory == pytest.approx(
            4.0)


class TestTimedAndSeries:
    def test_timed_returns_result_and_elapsed(self):
        from repro.bench.harness import timed

        result, elapsed = timed(sum, [1, 2, 3])
        assert result == 6
        assert elapsed >= 0.0

    def test_converged_series_gates_on_recall(self, catalog,
                                              sales_frame):
        from repro.bench.harness import SnapshotQuality, WakeRun
        from repro.core.edf import EvolvingDataFrame

        run = WakeRun(edf=EvolvingDataFrame())
        run.quality = [
            SnapshotQuality(0, 0.5, 1.0, 10, mape=0.1, recall=50.0,
                            precision=100.0),
            SnapshotQuality(1, 1.0, 2.0, 20, mape=0.2, recall=100.0,
                            precision=100.0),
        ]
        # first snapshot has low recall: its tiny MAPE must not count
        assert run.time_to_error(1.0) == 2.0


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["q", "latency"],
                            [["q1", 1.5], ["q10", 10.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_nan(self):
        text = format_table(["v"], [[float("nan")]])
        assert "nan" in text

    def test_banner(self):
        assert "TITLE" in banner("TITLE")

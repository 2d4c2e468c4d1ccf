"""Tests for the live snapshot-streaming API.

``ctx.stream()`` steps the same ``StepExecutor`` as ``ctx.run()``, one
pull at a time: the streamed sequence is ``run``'s, nothing is read
before the first pull, and dropping the generator closes the scans.
"""

import gc

import pytest

from repro import F, WakeContext, col
from repro.errors import PlanValidationError
from repro.obs import MetricsRegistry, ScanInstruments
from repro.tpch.queries import QUERIES
from tests.tpch.utils import assert_sequences_byte_identical

#: Same laptop-scale parameter overrides as tests/tpch/test_queries.py.
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 150}}


def _tpch_plan(catalog, number):
    """One fresh context per execution: scan labels (progress-counter
    keys) count a context's scans of each table."""
    ctx = WakeContext(catalog)
    return ctx, QUERIES[number].build_plan(
        ctx, **OVERRIDES.get(number, {}))


def _by_cust(ctx):
    return ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])


class TestStreamEqualsRun:
    # The "-1" id suffix is the K=1 of the retired sharded arm; it
    # keeps test ids stable across that removal.
    @pytest.mark.parametrize("number", sorted(QUERIES),
                             ids=lambda n: f"{n}-1")
    def test_tpch_sequence_identical(self, number, tpch):
        """Every snapshot — frames and progress — not just the final."""
        catalog, _tables = tpch
        ctx, plan = _tpch_plan(catalog, number)
        streamed = list(ctx.stream(plan))
        ctx, plan = _tpch_plan(catalog, number)
        ran = ctx.run(plan)
        assert streamed[-1].is_final
        assert_sequences_byte_identical(streamed, ran, f"q{number:02d}")

    def test_empty_result_still_yields_one_final(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").filter(col("qty") > 1e12).agg(
            F.sum("qty").alias("s"), by=["cust"]
        )
        snapshots = list(ctx.stream(plan))
        assert len(snapshots) == 1
        assert snapshots[0].is_final
        assert snapshots[0].frame.n_rows == 0

    def test_source_as_output(self, catalog, sales_frame):
        """Edge case: the output node is itself a source."""
        ctx = WakeContext(catalog)
        snapshots = list(ctx.stream(ctx.table("sales")))
        assert snapshots[-1].is_final
        assert snapshots[-1].frame.n_rows == sales_frame.n_rows
        assert_sequences_byte_identical(
            snapshots, ctx.run(ctx.table("sales", source_name="sales")),
            "raw scan")


class TestLaziness:
    def test_nothing_is_read_before_the_first_pull(self, catalog):
        ctx = WakeContext(catalog)
        stream = ctx.stream(_by_cust(ctx))
        executor = ctx.last_executor
        scan = executor.scan_metrics = ScanInstruments(MetricsRegistry())
        assert executor.steps == 0
        assert scan.partitions_read.value == 0
        next(stream)
        # One pull = one partition: the first snapshot needs no more.
        assert executor.steps == 1
        assert scan.partitions_read.value == 1
        stream.close()

    def test_malformed_plan_is_rejected_at_the_call(self, catalog):
        ctx = WakeContext(catalog)
        with pytest.raises(PlanValidationError, match="nope"):
            plan = ctx.table("sales").filter(col("nope") > 1)
            ctx.stream(plan)

    def test_operator_error_surfaces_unwrapped(self, catalog):
        """The failing ``next()`` raises the operator's own exception
        and the executor is closed behind it."""
        calls = []

        def explode(frame):
            calls.append(frame.n_rows)
            if len(calls) > 2:
                raise RuntimeError("injected failure")
            return frame

        ctx = WakeContext(catalog)
        sales = ctx.table("sales")
        stream = ctx.stream(
            sales.map_partitions(explode, schema=sales.schema))
        next(stream)
        next(stream)
        with pytest.raises(RuntimeError, match="injected failure"):
            next(stream)
        assert ctx.last_executor.closed
        with pytest.raises(StopIteration):
            next(stream)


class TestAbandonment:
    """Dropping a stream mid-flight closes the executor and every open
    partition stream — there is nothing else to tear down."""

    def _started(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").join(
            ctx.table("customers"), on=[("cust", "ckey")], method="hash",
        ).agg(F.count(None).alias("n"), by=["segment"])
        stream = ctx.stream(plan)
        first = next(stream)
        assert not first.is_final
        executor = ctx.last_executor
        scans = list(executor._streams.values())
        assert len(scans) == 2
        return stream, executor, scans

    @staticmethod
    def _assert_torn_down(executor, scans):
        assert executor.closed and not executor.done
        assert executor.graph is None  # operator state released
        assert not executor.edf.is_final
        for scan in scans:
            with pytest.raises(StopIteration):
                next(scan)

    def test_close_mid_stream(self, catalog):
        stream, executor, scans = self._started(catalog)
        stream.close()
        self._assert_torn_down(executor, scans)

    def test_abandoned_generator_is_collected(self, catalog):
        stream, executor, scans = self._started(catalog)
        del stream  # GC closes the generator (GeneratorExit path)
        gc.collect()
        self._assert_torn_down(executor, scans)

    def test_break_out_of_consumer_loop(self, catalog):
        stream, executor, scans = self._started(catalog)
        with pytest.raises(KeyboardInterrupt):
            for _snapshot in stream:
                raise KeyboardInterrupt
        stream.close()
        self._assert_torn_down(executor, scans)

    def test_closing_the_executor_ends_the_stream(self, catalog):
        """The replacement for the threaded engine's ``cancel()``."""
        stream, executor, scans = self._started(catalog)
        executor.close()
        assert list(stream) == []
        self._assert_torn_down(executor, scans)

    def test_exhausted_stream_closes_the_executor(self, catalog):
        ctx = WakeContext(catalog)
        snapshots = list(ctx.stream(_by_cust(ctx)))
        assert snapshots[-1].is_final
        assert ctx.last_executor.done and ctx.last_executor.closed


class TestDoubleScan:
    def test_two_scans_get_independent_progress(self, catalog,
                                                sales_frame):
        """Reading the same table twice must not share one progress
        counter (the faster scan would complete the source early)."""
        ctx = WakeContext(catalog)
        a = ctx.table("sales")
        b = ctx.table("sales")
        joined = a.join(b, on="okey", method="hash")
        edf = ctx.run(joined)
        final_progress = edf.snapshots[-1].progress
        assert len(final_progress.total) == 2  # two distinct sources
        assert edf.is_final
        assert edf.get_final().n_rows == 120  # 2x2 rows per okey

    def test_intermediate_t_not_inflated(self, catalog):
        ctx = WakeContext(catalog)
        a = ctx.table("sales")
        b = ctx.table("sales")
        joined = a.join(b, on="okey", method="hash")
        edf = ctx.run(joined)
        # with the build side drained first, probe progress drives t;
        # no snapshot may claim completion before the last one
        for snapshot in edf.snapshots[:-1]:
            assert snapshot.t <= 1.0

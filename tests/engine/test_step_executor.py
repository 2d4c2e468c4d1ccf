"""StepExecutor: resumable stepping, parity with ``ctx.run()``, close().

The step executor is the scheduling quantum of the multi-query service;
its contract is that stepping to completion — no matter who interleaves
what between the steps — reproduces the run-to-EOF snapshot sequence
byte-for-byte.
"""

import pytest

from repro import F, WakeContext, col
from repro.engine import QueryGraph, StepExecutor
from repro.engine.ops import ReadOperator
from repro.engine.ops.base import Operator


def assert_sequences_identical(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got.snapshots, expected.snapshots):
        assert a.sequence == b.sequence
        assert a.t == b.t
        assert dict(a.progress.done) == dict(b.progress.done)
        assert tuple(a.frame.column_names) == tuple(b.frame.column_names)
        for name in a.frame.column_names:
            assert (a.frame.column(name).tobytes()
                    == b.frame.column(name).tobytes())


class TestStepParity:
    def test_agg_plan_matches_run(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                      by=["cust"])
        base = ctx.run(plan)
        stepped = ctx.executor_for(plan).run()
        assert_sequences_identical(stepped, base)

    def test_join_plan_drains_build_first(self, catalog):
        """Hash-join build sources drain fully before probe partitions
        stream."""
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").join(
            ctx.table("customers"), on=[("cust", "ckey")],
            method="hash",
        ).agg(F.count(None).alias("n"), by=["region"])
        base = ctx.run(plan)
        stepped = ctx.executor_for(plan).run()
        assert_sequences_identical(stepped, base)

    def test_empty_result_seals_edf(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").filter(col("qty") > 1e12)
        base = ctx.run(plan)
        stepped = ctx.executor_for(plan).run()
        assert stepped.is_final
        assert_sequences_identical(stepped, base)


class TestStepping:
    def _executor(self, catalog, **kwargs):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                      by=["cust"])
        return ctx.executor_for(plan, **kwargs)

    def test_step_returns_false_after_done(self, catalog):
        executor = self._executor(catalog)
        steps = 0
        while executor.step():
            steps += 1
        assert executor.done
        assert steps == executor.steps
        # sales has 6 partitions + 1 EOF dispatch
        assert steps == 7
        assert not executor.step()
        assert executor.steps == steps

    def test_snapshots_appear_incrementally(self, catalog):
        executor = self._executor(catalog)
        seen = 0
        growth_points = 0
        while executor.step():
            if len(executor.edf) > seen:
                growth_points += 1
                seen = len(executor.edf)
        assert growth_points >= 2  # snapshots arrive across steps
        assert executor.edf.is_final

    def test_edf_accessible_before_first_step(self, catalog):
        executor = self._executor(catalog)
        assert len(executor.edf) == 0

    def test_run_twice_returns_same_edf(self, catalog):
        executor = self._executor(catalog)
        first = executor.run()
        assert executor.run() is first


class TestClose:
    def test_close_mid_run_stops_stepping(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                      by=["cust"])
        executor = ctx.executor_for(plan)
        for _ in range(3):
            assert executor.step()
        snapshots = len(executor.edf)
        executor.close()
        assert executor.closed
        assert not executor.done  # never completed
        assert not executor.step()
        # the snapshots produced so far stay readable
        assert len(executor.edf) == snapshots
        assert not executor.edf.is_final

    def test_close_releases_operator_state(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                      by=["cust"])
        executor = ctx.executor_for(plan)
        executor.step()
        executor.close()
        assert executor.graph is None

    def test_close_closes_read_streams(self, catalog):
        """The scan generators must actually be closed (their
        GeneratorExit runs), not just dropped."""
        graph = QueryGraph()
        read = ReadOperator(WakeContext(catalog).catalog.table("sales"))
        closed = []
        original = read.stream

        def tracking_stream():
            try:
                yield from original()
            finally:
                closed.append(True)

        read.stream = tracking_stream
        node = graph.add(read)
        executor = StepExecutor(graph, node)
        executor.step()
        assert not closed
        executor.close()
        assert closed == [True]

    def test_close_before_start_is_safe(self, catalog):
        executor = self._fresh(catalog)
        executor.close()
        assert not executor.step()
        assert len(executor.edf) == 0

    def test_close_idempotent(self, catalog):
        executor = self._fresh(catalog)
        executor.step()
        executor.close()
        executor.close()

    def _fresh(self, catalog):
        ctx = WakeContext(catalog)
        return ctx.executor_for(ctx.table("sales").sum("qty"))


class _Exploding(Operator):
    def _derive_info(self, inputs):
        return inputs[0]

    def _handle_message(self, port, message):
        raise RuntimeError("injected step failure")


class TestErrorPropagation:
    def test_step_raises_operator_error(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        boom = graph.add(_Exploding("boom"), (read,))
        executor = StepExecutor(graph, boom)
        with pytest.raises(RuntimeError, match="injected step failure"):
            while executor.step():
                pass

"""Pull-driven estimates: a shuffle aggregate builds (``infer``s) a t < 1
version only when some reader wants it.  Counting
``AggregateInference.infer`` calls per aggregate shows which versions
were built; the snapshots a reader does see must not change."""

from collections import Counter

import pytest

from repro import ExecutionOptions, F, WakeContext, col
from repro.core.ci import CIConfig
from repro.core.inference import AggregateInference
from repro.engine.ops import AggregateOperator
from repro.service import QueryService, SessionState

#: The ``sales`` fixture table's partition count: one version per
#: partition at every level of a cascade.
PARTITIONS = 6


@pytest.fixture
def infers(monkeypatch):
    """Counter of ``infer`` calls keyed by the AggregateInference."""
    calls: Counter = Counter()
    original = AggregateInference.infer

    def counting(self, state, t):
        calls[id(self)] += 1
        return original(self, state, t)

    monkeypatch.setattr(AggregateInference, "infer", counting)
    return calls


def per_level(calls, graph):
    """Infer counts of the graph's aggregates, upstream first."""
    return [
        calls[id(node.operator._inference)]
        for _nid, node in sorted(graph.nodes.items())
        if isinstance(node.operator, AggregateOperator)
    ]


def cascade(ctx, **agg):
    per_cust = ctx.table("sales").agg(
        F.sum("qty").alias("s"), by=["cust"], **agg)
    return per_cust.agg(F.sum("s").alias("total"), **agg)


def snapshot_bytes(snapshot):
    """What a reader sees of a snapshot (its ``sequence`` counts the
    snapshots taken, which differs between capture modes)."""
    frame = snapshot.frame
    return (snapshot.t, tuple(
        (name, frame.column(name).dtype.str, frame.column(name).tobytes())
        for name in frame.column_names
    ))


class TestBuildPort:
    @pytest.mark.parametrize("capture_all", [True, False])
    def test_replace_build_infers_only_at_build_eof(
        self, catalog, infers, capture_all
    ):
        """q20's shape: a shuffle aggregate feeds a hash-join build,
        which indexes only the version standing at its EOF."""
        ctx = WakeContext(catalog)
        per_cust = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                          by=["cust"])
        plan = ctx.table("customers").join(per_cust,
                                           on=[("ckey", "cust")])
        executor = ctx.executor_for(plan, capture_all=capture_all)
        edf = executor.run()
        assert per_level(infers, executor.graph) == [1]
        assert edf.get_final().n_rows == 5


class TestSinkDemand:
    def test_capture_all_false_builds_first_and_final(
        self, catalog, infers
    ):
        ctx = WakeContext(catalog)
        every = ctx.run(cascade(ctx), capture_all=True)
        infers.clear()
        executor = ctx.executor_for(cascade(ctx), capture_all=False)
        lazy = executor.run()
        assert per_level(infers, executor.graph) == [2, 2]
        assert [snapshot_bytes(s) for s in lazy.snapshots] == [
            snapshot_bytes(every.snapshots[0]),
            snapshot_bytes(every.snapshots[-1]),
        ]

    def test_pass_through_operators_forward_the_demand(
        self, catalog, infers
    ):
        """Filter, select and sort answer each version on its own, so an
        aggregate behind them builds only what the sink reads."""
        ctx = WakeContext(catalog)

        def plan(ctx):
            per_cust = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                              by=["cust"])
            kept = per_cust.filter(col("s") > 0).select(
                cust="cust", s2=col("s") * 2).sort("s2")
            return kept.agg(F.sum("s2").alias("total"))

        every = ctx.run(plan(ctx), capture_all=True)
        infers.clear()
        executor = ctx.executor_for(plan(ctx), capture_all=False)
        lazy = executor.run()
        assert per_level(infers, executor.graph) == [2, 2]
        assert snapshot_bytes(lazy.snapshots[-1]) == \
            snapshot_bytes(every.snapshots[-1])

    def test_capture_all_true_builds_every_version(self, catalog,
                                                   infers):
        ctx = WakeContext(catalog)
        executor = ctx.executor_for(cascade(ctx), capture_all=True)
        executor.run()
        assert per_level(infers, executor.graph) == [PARTITIONS] * 2

    def test_stream_builds_every_version(self, catalog, infers):
        ctx = WakeContext(catalog)
        stream = ctx.stream(cascade(ctx))
        graph = ctx.last_executor.graph  # dropped when the stream ends
        assert len(list(stream)) == PARTITIONS
        assert per_level(infers, graph) == [PARTITIONS] * 2

    def test_service_session_builds_every_version(self, catalog,
                                                  infers):
        service = QueryService(WakeContext(catalog),
                               plans={"cascade": cascade})
        session = service.submit("cascade")
        service.scheduler.run_until_idle()
        assert session.state is SessionState.DONE
        assert len(session.buffer) == PARTITIONS
        assert per_level(infers, session.executor.graph) == \
            [PARTITIONS] * 2


class TestEveryVersionReaders:
    def test_sketch_quantile_reads_every_version(self, catalog, infers):
        """A sketch reservoir's RNG runs across versions, so the
        aggregate under it builds them all even when the sink wants
        only the first and the final."""
        ctx = WakeContext(
            catalog, options=ExecutionOptions(quantile_mode="sketch"))

        def plan(ctx):
            per_cust = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                              by=["cust"])
            return per_cust.agg(F.median("s").alias("m"))

        every = ctx.run(plan(ctx), capture_all=True)
        infers.clear()
        executor = ctx.executor_for(plan(ctx), capture_all=False)
        lazy = executor.run()
        assert per_level(infers, executor.graph) == [PARTITIONS, 2]
        assert snapshot_bytes(lazy.snapshots[-1]) == \
            snapshot_bytes(every.snapshots[-1])

    def test_exact_quantile_forwards_the_demand(self, catalog, infers):
        ctx = WakeContext(catalog)
        per_cust = ctx.table("sales").agg(F.sum("qty").alias("s"),
                                          by=["cust"])
        executor = ctx.executor_for(
            per_cust.agg(F.median("s").alias("m")), capture_all=False)
        executor.run()
        assert per_level(infers, executor.graph) == [2, 2]


def test_sigma_finals_identical_in_both_capture_modes(catalog):
    """Skipped versions only feed the growth fit's history, and a t = 1
    estimate — sigma columns included — never reads that fit."""
    ctx = WakeContext(catalog, ci=CIConfig(0.95))
    every = ctx.run(cascade(ctx, ci=True), capture_all=True)
    lazy = ctx.run(cascade(ctx, ci=True), capture_all=False)
    final = lazy.snapshots[-1].frame
    assert "total__sigma" in final.column_names
    assert snapshot_bytes(lazy.snapshots[-1]) == \
        snapshot_bytes(every.snapshots[-1])
    assert snapshot_bytes(lazy.snapshots[0]) == \
        snapshot_bytes(every.snapshots[0])

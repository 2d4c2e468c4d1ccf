"""Rule engine behaviour: rules fire where expected, every escape hatch
works, and each rewrite preserves byte-identical snapshot sequences.

The rules' correctness contract is checked two ways: structurally here
(the optimized graph has the expected operator counts) and behaviourally
— the optimized plan's snapshot sequence must match the unoptimized
plan's snapshot for snapshot, byte for byte.
"""

import numpy as np
import pytest

from repro import ExecutionOptions, WakeContext, col
from repro.api.functions import F
from repro.errors import QueryError
from repro.engine.graph import QueryGraph
from repro.engine.optimizer import (
    LOGICAL_RULE_NAMES,
    RULE_NAMES,
    build_optimizer,
    validate_rule_names,
)
from repro.engine.ops import (
    AggregateOperator,
    FilterOperator,
    SelectOperator,
)


#: Every rewrite and scan pushdown off: the plan runs as written.
UNOPTIMIZED = ExecutionOptions(optimize=False, pushdown=False)


def _optimized_graph(frame, **kwargs):
    graph = QueryGraph()
    output = frame.plan.materialize(graph, {})
    optimizer = build_optimizer(**kwargs)
    return optimizer.optimize(graph, output)


def _count(graph, op_type):
    return sum(
        1 for node in graph.nodes.values()
        if isinstance(node.operator, op_type)
    )


def _assert_sequences_identical(seq_a, seq_b):
    assert len(seq_a) == len(seq_b)
    for a, b in zip(seq_a.snapshots, seq_b.snapshots):
        assert a.sequence == b.sequence
        assert a.t == b.t
        assert dict(a.progress.done) == dict(b.progress.done)
        assert tuple(a.frame.column_names) == tuple(b.frame.column_names)
        for name in a.frame.column_names:
            assert (a.frame.column(name).tobytes()
                    == b.frame.column(name).tobytes()), name


# ---------------------------------------------------------------------------
# combine-filters
# ---------------------------------------------------------------------------

def test_combine_filters_collapses_chain(catalog):
    ctx = WakeContext(catalog)
    q = (
        ctx.table("sales")
        .filter(col("cust").contains("c1"))   # string work: ranked last
        .filter(col("qty") > 5.0)             # sargable: ranked first
        .filter(col("qty") < 45.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    )
    graph, _out, trace = _optimized_graph(q)
    assert _count(graph, FilterOperator) == 1
    assert trace.by_rule()["combine-filters"] >= 2


def test_combine_filters_orders_sargable_first(catalog):
    from repro.engine.plan_node import flatten_conjuncts
    from repro.dataframe.expr import StringExpr

    ctx = WakeContext(catalog)
    q = (
        ctx.table("sales")
        .filter(col("cust").contains("c1"))
        .filter(col("qty") > 5.0)
        .agg(F.count().alias("n"))
    )
    graph, _out, _trace = _optimized_graph(q)
    (fid,) = [
        nid for nid, node in graph.nodes.items()
        if isinstance(node.operator, FilterOperator)
    ]
    conjuncts = flatten_conjuncts(graph.node(fid).operator.predicate)
    assert not isinstance(conjuncts[0], StringExpr)
    assert isinstance(conjuncts[-1], StringExpr)


def test_combine_filters_sequences_byte_identical(catalog):
    ctx_on = WakeContext(catalog)
    ctx_off = WakeContext(catalog, options=UNOPTIMIZED)

    def q(ctx):
        return (
            ctx.table("sales")
            .filter(col("cust").contains("c1"))
            .filter(col("qty") > 5.0)
            .agg(F.sum("qty").alias("s"), by=["region"])
        )

    _assert_sequences_identical(ctx_on.run(q(ctx_on)),
                                ctx_off.run(q(ctx_off)))
    assert ctx_on.last_trace.by_rule().get("combine-filters", 0) >= 1
    assert ctx_off.last_trace.total_rewrites == 0


def test_multi_subscriber_filter_not_absorbed(catalog):
    """A filter feeding two consumers must stay: absorbing it into one
    chain would change what the other consumer sees."""
    ctx = WakeContext(catalog)
    base = ctx.table("sales").filter(col("qty") > 5.0)
    left = base.filter(col("qty") < 40.0).agg(F.count().alias("a"))
    right = base.agg(F.count().alias("b"))
    q = left.cross_join(right)
    graph, _out, _trace = _optimized_graph(q)
    assert _count(graph, FilterOperator) == 2


# ---------------------------------------------------------------------------
# aggregate-projection
# ---------------------------------------------------------------------------

def test_aggregate_projection_prunes_unused_outputs(catalog):
    ctx = WakeContext(catalog)
    q = (
        ctx.table("sales")
        .select(region="region", qty="qty",
                wasted=col("qty") * 1000.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    )
    graph, _out, trace = _optimized_graph(q)
    assert trace.by_rule()["aggregate-projection"] == 1
    (sid,) = [
        nid for nid, node in graph.nodes.items()
        if isinstance(node.operator, SelectOperator)
    ]
    names = [name for name, _ in graph.node(sid).operator.exprs]
    assert names == ["region", "qty"]


def test_aggregate_projection_sequences_byte_identical(catalog):
    ctx_on = WakeContext(catalog)
    ctx_off = WakeContext(catalog, options=UNOPTIMIZED)

    def q(ctx):
        return (
            ctx.table("sales")
            .select(region="region", qty="qty",
                    wasted=col("qty") * 1000.0)
            .agg(F.avg("qty").alias("a"), by=["region"])
        )

    _assert_sequences_identical(ctx_on.run(q(ctx_on)),
                                ctx_off.run(q(ctx_off)))


# ---------------------------------------------------------------------------
# common-subplan
# ---------------------------------------------------------------------------

def _duplicated_chain_query(ctx):
    """Two *separately built* but identical filter→aggregate chains over
    one shared scan, joined — the CSE motivating shape."""
    t = ctx.table("sales")
    left = (
        t.filter(col("qty") > 10.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    )
    right = (
        t.filter(col("qty") > 10.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    )
    return left.join(right, on=[("region", "region")])


def test_cse_merges_duplicate_chains(catalog):
    ctx = WakeContext(catalog)
    q = _duplicated_chain_query(ctx)
    graph, _out, trace = _optimized_graph(q)
    # One filter and one aggregate survive; the join reads the merged
    # aggregate on both ports.
    assert _count(graph, FilterOperator) == 1
    assert _count(graph, AggregateOperator) == 1
    assert trace.by_rule()["common-subplan"] >= 2


def test_cse_sequences_byte_identical(catalog):
    ctx_on = WakeContext(catalog)
    ctx_off = WakeContext(catalog, options=UNOPTIMIZED)
    _assert_sequences_identical(
        ctx_on.run(_duplicated_chain_query(ctx_on)),
        ctx_off.run(_duplicated_chain_query(ctx_off)),
    )


def test_cse_distinguishes_different_predicates(catalog):
    ctx = WakeContext(catalog)
    t = ctx.table("sales")
    left = t.filter(col("qty") > 10.0).agg(F.count().alias("a"))
    right = t.filter(col("qty") > 11.0).agg(F.count().alias("b"))
    q = left.cross_join(right)
    graph, _out, trace = _optimized_graph(q)
    assert _count(graph, FilterOperator) == 2
    assert "common-subplan" not in trace.by_rule()


def test_cse_never_merges_separate_scans(catalog):
    """Two table() calls are distinct sources (separate progress
    counters) and must never merge, even though they read one table."""
    ctx = WakeContext(catalog)
    left = ctx.table("sales").filter(col("qty") > 10.0) \
        .agg(F.count().alias("a"))
    right = ctx.table("sales").filter(col("qty") > 10.0) \
        .agg(F.count().alias("b"))
    q = left.cross_join(right)
    graph, _out, trace = _optimized_graph(q)
    assert _count(graph, FilterOperator) == 2
    assert "common-subplan" not in trace.by_rule()


# ---------------------------------------------------------------------------
# escape hatches + trace
# ---------------------------------------------------------------------------

def test_optimize_false_disables_every_rule(catalog):
    ctx = WakeContext(catalog, options=ExecutionOptions(optimize=False))
    q = _duplicated_chain_query(ctx)
    final_off = ctx.run(q).get_final()
    assert ctx.last_trace.total_rewrites == 0
    assert ctx.last_trace.passes == 0
    final_on = WakeContext(catalog).run(
        _duplicated_chain_query(WakeContext(catalog))
    )
    # Same final answer either way (sanity, beyond the sequence tests).
    assert final_off.n_rows == final_on.get_final().n_rows


def test_per_rule_disable(catalog):
    ctx = WakeContext(catalog, options=ExecutionOptions(
        optimizer_disable={"common-subplan"}))
    ctx.run(_duplicated_chain_query(ctx), capture_all=False)
    assert "common-subplan" not in ctx.last_trace.by_rule()

    ctx2 = WakeContext(catalog)
    ctx2.run(_duplicated_chain_query(ctx2), capture_all=False)
    assert "common-subplan" in ctx2.last_trace.by_rule()


def test_unknown_rule_name_rejected_eagerly():
    with pytest.raises(QueryError, match="unknown optimizer rule"):
        ExecutionOptions(optimizer_disable={"no-such-rule"})
    with pytest.raises(QueryError):
        validate_rule_names({"combine-filters", "typo"})
    assert validate_rule_names(RULE_NAMES) == frozenset(RULE_NAMES)
    assert set(LOGICAL_RULE_NAMES) <= set(RULE_NAMES)


def test_exchange_rule_name_is_gone():
    assert "exchange" not in RULE_NAMES
    with pytest.raises(QueryError, match=r"unknown optimizer rule.*exchange"):
        ExecutionOptions(optimizer_disable={"exchange"})


def test_run_level_optimize_override(catalog):
    ctx = WakeContext(catalog)
    ctx.run(_duplicated_chain_query(ctx), capture_all=False,
            options=ctx.options.merged(optimize=False))
    assert ctx.last_trace.total_rewrites == 0


def test_explain_renders_trace_and_hash(catalog):
    ctx = WakeContext(catalog)
    text = ctx.explain(_duplicated_chain_query(ctx))
    assert "optimizer:" in text
    assert "plan hash=" in text
    assert "common-subplan" in text


def test_optimizer_fixed_point_is_idempotent(catalog):
    """Optimizing an already-optimized plan rewrites nothing logical."""
    ctx = WakeContext(catalog)
    graph = QueryGraph()
    q = _duplicated_chain_query(ctx)
    output = q.plan.materialize(graph, {})
    optimizer = build_optimizer(pushdown=False)
    graph, output, first = optimizer.optimize(graph, output)
    assert first.total_rewrites > 0
    graph, output, second = build_optimizer(pushdown=False).optimize(
        graph, output
    )
    assert second.total_rewrites == 0


def test_optimized_final_values_correct(catalog, sales_frame):
    """Beyond parity: the merged plan computes the right numbers."""
    ctx = WakeContext(catalog)
    final = ctx.run(_duplicated_chain_query(ctx)).get_final()
    qty = sales_frame.column("qty")
    region = sales_frame.column("region")
    for i, r in enumerate(final.column("region")):
        expected = qty[(region == r) & (qty > 10.0)].sum()
        assert np.isclose(final.column("s")[i], expected)
        assert np.isclose(final.column("s_right")[i], expected)

"""Optimizer driver behaviour: the trace it renders, that re-running it
changes nothing, and that each plan shape below keeps byte-identical
snapshot sequences with the pushdowns on and off.

The same parity is checked over all 22 TPC-H queries by
``tests/tpch/test_optimizer_parity.py``; soundness of each pass by
``tests/analysis/test_rewrite_soundness.py``.
"""

import numpy as np

from repro import ExecutionOptions, WakeContext, col
from repro.analysis.schema_check import infer_plan
from repro.api.functions import F
from repro.core.ci import CIConfig
from repro.engine.graph import QueryGraph
from repro.engine.ops import SelectOperator
from repro.engine.optimizer import optimize


#: Both pushdowns off: the plan runs as written.
UNOPTIMIZED = ExecutionOptions(pushdown=False)


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


def _assert_parity(catalog, build, pass_name, ci=None):
    """``build(ctx)`` runs byte-identically with the pushdowns on and
    off, and ``pass_name`` rewrote something on the way."""
    ctx_on = WakeContext(catalog, ci=ci)
    ctx_off = WakeContext(catalog, ci=ci, options=UNOPTIMIZED)
    _assert_sequences_identical(ctx_on.run(build(ctx_on)),
                                ctx_off.run(build(ctx_off)))
    assert ctx_on.last_trace.rewrites.get(pass_name, 0) >= 1
    assert ctx_off.last_trace.total_rewrites == 0


def test_combine_filters_sequences_byte_identical(catalog):
    """Stacked filters, a string conjunct first: the sargable one above
    it still reaches the scan."""
    _assert_parity(catalog, lambda ctx: (
        ctx.table("sales")
        .filter(col("cust").contains("c1"))
        .filter(col("qty") > 5.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    ), "predicate-pushdown")


def test_aggregate_projection_prunes_unused_outputs(catalog):
    """Projection drops the select outputs the aggregate never reads,
    then narrows the scan to what the rest read."""
    ctx = WakeContext(catalog)
    q = (
        ctx.table("sales")
        .select(region="region", qty="qty",
                wasted=col("okey") * 1000.0)
        .agg(F.sum("qty").alias("s"), by=["region"])
    )
    graph = QueryGraph()
    output = q.plan.materialize(graph, {}, q.context.options)
    trace = optimize(graph, output)
    assert trace.rewrites["projection-pushdown"] == 2
    (select,) = [
        node.operator for node in graph.nodes.values()
        if isinstance(node.operator, SelectOperator)
    ]
    assert [name for name, _ in select.exprs] == ["region", "qty"]
    (scan,) = [graph.node(nid).operator for nid in graph.source_ids()]
    assert scan.columns == ("qty", "region")


def test_aggregate_projection_sequences_byte_identical(catalog):
    """A select with an output the aggregate above never reads."""
    _assert_parity(catalog, lambda ctx: (
        ctx.table("sales")
        .select(region="region", qty="qty",
                wasted=col("qty") * 1000.0)
        .agg(F.avg("qty").alias("a"), by=["region"])
    ), "projection-pushdown")


def test_select_under_join_keeps_collision_outputs(catalog):
    """The aggregate reads only ``qty_right``, which is named so because
    the left select's ``qty`` collides: neither select may drop ``qty``."""
    def build(ctx):
        left = ctx.table("sales").select(okey="okey", qty="qty")
        right = ctx.table("sales").select(okey="okey",
                                          qty=col("qty") * 2.0)
        return left.join(right, on=[("okey", "okey")]).agg(
            F.sum("qty_right").alias("s")
        )
    _assert_parity(catalog, build, "projection-pushdown")


def test_self_join_scan_keeps_collision_column(catalog):
    """Two scans of one table joined; only the suffixed right column is
    read, so the left scan still reads ``qty`` to keep the suffix."""
    def build(ctx):
        joined = ctx.table("sales").join(
            ctx.table("sales"), on=[("okey", "okey")]
        )
        return joined.agg(F.sum("qty_right").alias("s"), by=["okey"])
    _assert_parity(catalog, build, "projection-pushdown")
    ctx = WakeContext(catalog)
    graph = QueryGraph()
    output = build(ctx).plan.materialize(graph, {}, ctx.options)
    optimize(graph, output)
    scans = [graph.node(nid).operator for nid in graph.source_ids()]
    assert [scan.columns for scan in scans] == [("okey", "qty")] * 2


def test_ci_select_over_projected_sigma_sequences_byte_identical(catalog):
    """A ci select reads the sigma companion a project passes through."""
    _assert_parity(catalog, lambda ctx: (
        ctx.table("sales")
        .agg(F.sum("qty").alias("s"), by=["region"])
        .project("region", "s", "s__sigma")
        .select(d=col("s") * 2.0)
    ), "projection-pushdown", ci=CIConfig())


def test_ci_select_demands_sigma_companions(catalog):
    """A ci select's demand names the sigma column of each mutable
    input it reads, as well as the input itself."""
    ctx = WakeContext(catalog, ci=CIConfig())
    frame = (
        ctx.table("sales")
        .agg(F.sum("qty").alias("s"), by=["region"])
        .select(d=col("s") * 2.0)
    )
    graph = QueryGraph()
    output = frame.plan.materialize(graph, {}, frame.context.options)
    infos = infer_plan(graph, output)
    node = graph.node(output)
    schemas = tuple(infos[i].schema for i in node.inputs)
    assert node.operator.required_inputs(schemas, {"d"}) == [
        {"s", "s__sigma"}
    ]


def _duplicated_chain_query(ctx):
    """Two *separately built* but identical filter→aggregate chains over
    one shared scan, joined."""
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


def test_cse_sequences_byte_identical(catalog):
    """Two identical chains over one scan: the scan has two subscribers,
    so only projection applies."""
    _assert_parity(catalog, _duplicated_chain_query, "projection-pushdown")


def test_explain_renders_trace_and_hash(catalog):
    ctx = WakeContext(catalog)
    text = ctx.explain(_duplicated_chain_query(ctx))
    assert "optimizer: plan hash=" in text
    assert "projection-pushdown: 1 node(s) rewritten" in text
    assert "pass(es)" not in text


def test_optimizer_fixed_point_is_idempotent(catalog):
    """Optimizing an already-optimized plan changes nothing."""
    ctx = WakeContext(catalog)
    graph = QueryGraph()
    output = _duplicated_chain_query(ctx).plan.materialize(graph, {},
                                                           ctx.options)
    first = optimize(graph, output)
    assert first.total_rewrites > 0
    scans = [graph.node(nid).operator for nid in graph.source_ids()]
    before = [(scan.columns, scan.predicates) for scan in scans]
    second = optimize(graph, output)
    assert [(scan.columns, scan.predicates) for scan in scans] == before
    assert second.plan_hash == first.plan_hash


def test_optimized_final_values_correct(catalog, sales_frame):
    """Beyond parity: the optimized plan computes the right numbers."""
    ctx = WakeContext(catalog)
    final = ctx.run(_duplicated_chain_query(ctx)).get_final()
    qty = sales_frame.column("qty")
    region = sales_frame.column("region")
    for i, r in enumerate(final.column("region")):
        expected = qty[(region == r) & (qty > 10.0)].sum()
        assert np.isclose(final.column("s")[i], expected)
        assert np.isclose(final.column("s_right")[i], expected)

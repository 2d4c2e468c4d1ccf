"""Optimizer rewrite-soundness: after every pushdown pass, the plan's
inferred output schema, delivery, and source set must be exactly what
they were before the rewrite.

Checked three ways: every TPC-H plan through the optimizer (any drift
raises), each pass in isolation, and a hypothesis sweep over randomly
composed filter/select/join/aggregate chains.  A sabotaged pass shows
the check itself fires."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import F, WakeContext, col
from repro.analysis import infer_plan, plan_fingerprint
from repro.engine.graph import QueryGraph
from repro.engine import optimizer
from repro.engine.planner import projection_pass, pruning_pass
from repro.errors import PlanValidationError
from repro.tpch.queries import QUERIES

#: The catalog fixture is read-only across examples, so reuse is safe.
_FIXTURE_OK = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

#: Per-query parameter overrides keeping plans non-degenerate at the
#: test scale factor (mirrors benchmarks/conftest.BENCH_OVERRIDES).
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 200}}


def _materialize(frame):
    graph = QueryGraph()
    output = frame.plan.materialize(graph, {}, frame.context.options)
    return graph, output


def _optimize(frame):
    graph, output = _materialize(frame)
    before = plan_fingerprint(graph, output)
    trace = optimizer.optimize(graph, output)
    after = plan_fingerprint(graph, output)
    return before, after, trace


# The "-1" id suffix is the K=1 of the retired sharded arm; it keeps
# test ids stable across that removal.
@pytest.mark.parametrize("number", sorted(QUERIES), ids=lambda n: f"{n}-1")
def test_tpch_rewrites_sound(tpch, number):
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    frame = QUERIES[number].build_plan(ctx, **OVERRIDES.get(number, {}))
    before, after, _trace = _optimize(frame)
    assert after == before


#: Each pass by the name the trace records it under.
PASSES = {
    "predicate-pushdown": lambda graph, output, _infos: pruning_pass(
        graph, output),
    "projection-pushdown": projection_pass,
}


@pytest.mark.parametrize("rule", sorted(PASSES))
def test_each_rule_in_isolation(tpch, rule):
    """Run one pass alone: its rewrites must preserve the plan invariant
    on their own (catches a pass that only looks sound because the other
    repairs its damage)."""
    catalog, _tables = tpch
    fired_anywhere = 0
    for number in sorted(QUERIES):
        ctx = WakeContext(catalog)
        frame = QUERIES[number].build_plan(
            ctx, **OVERRIDES.get(number, {})
        )
        graph, output = _materialize(frame)
        infos = infer_plan(graph, output)
        before = plan_fingerprint(graph, output, infos)
        fired_anywhere += PASSES[rule](graph, output, infos)
        after = plan_fingerprint(graph, output)
        assert after == before, f"q{number}: {rule} drifted the plan"
    assert fired_anywhere > 0, f"{rule} never fired on any plan"


def test_trace_holds_the_rederived_plan(tpch):
    """After a pass rewrote the plan, the trace holds its re-derivation,
    which the executor binds from: the narrowed scan's schema."""
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    frame = QUERIES[3].build_plan(ctx)
    graph, output = _materialize(frame)
    trace = optimizer.optimize(graph, output)
    assert "projection-pushdown" in trace.rewrites
    assert trace.infos == infer_plan(graph, output)
    for nid in graph.source_ids():
        scan = graph.node(nid).operator
        assert trace.infos[nid].schema.names == scan.columns


def _narrow_below_output(graph, output, infos):
    """A sabotaged projection pass: narrows the scan to one column the
    output does not read, starving the output of the rest."""
    (read_id,) = graph.source_ids()
    graph.node(read_id).operator.set_columns({"okey"})
    return 1


def _sales_filter(catalog):
    ctx = WakeContext(catalog)
    return ctx.table("sales").filter(col("qty") > 1).select(
        qty="qty", cust="cust"
    )


def test_unsound_rewrite_always_raises(catalog, monkeypatch):
    """Sabotage a pass so it fires but corrupts the plan: every submit
    refuses the rewrite with a structured error, before any run."""
    monkeypatch.setattr(optimizer, "projection_pass", _narrow_below_output)
    graph, output = _materialize(_sales_filter(catalog))
    with pytest.raises(PlanValidationError) as info:
        optimizer.optimize(graph, output)
    assert info.value.code == "unsound-rewrite"
    assert "projection-pushdown" in str(info.value)

    with pytest.raises(PlanValidationError) as info:
        _sales_filter(catalog).run()
    assert info.value.code == "unsound-rewrite"


# -- hypothesis sweep over composed plans -----------------------------------

_PREDICATES = [
    col("qty") > 5.0,
    col("qty") < 45.0,
    col("okey") >= 3,
    col("cust") == "c1",
    col("region") != "east",
]

_AGGS = [
    lambda qty: F.sum(qty).alias("s"),
    lambda qty: F.avg(qty).alias("m"),
    lambda qty: F.count(None).alias("n"),
]

#: Right inputs of a self-join on ``okey``: a raw scan, or a select.
_JOIN_RIGHTS = {
    "scan": lambda t: t,
    "select": lambda t: t.select(okey="okey", qty=col("qty") * 2.0),
}


@given(
    pred_indexes=st.lists(
        st.integers(0, len(_PREDICATES) - 1), min_size=0, max_size=4
    ),
    project_first=st.booleans(),
    join_right=st.one_of(st.none(), st.sampled_from(sorted(_JOIN_RIGHTS))),
    agg_index=st.one_of(
        st.none(), st.integers(0, len(_AGGS) - 1)
    ),
)
# More examples than the default: the join arm adds a dimension.
@settings(parent=_FIXTURE_OK, max_examples=60)
def test_random_chains_sound(catalog, pred_indexes, project_first,
                             join_right, agg_index):
    ctx = WakeContext(catalog)
    frame = ctx.table("sales")
    if project_first:
        frame = frame.project("okey", "qty", "cust", "region")
    for index in pred_indexes:
        frame = frame.filter(_PREDICATES[index])
    qty = "qty"
    if join_right is not None:
        # The aggregate then reads only the right side's ``qty``, which
        # surfaces as ``qty_right`` because the left one collides.
        right = _JOIN_RIGHTS[join_right](ctx.table("sales"))
        frame = frame.join(right, on=[("okey", "okey")])
        qty = "qty_right"
    if agg_index is not None:
        frame = frame.agg(_AGGS[agg_index](qty), by=["okey"])
    before, after, _trace = _optimize(frame)
    assert after == before

"""Optimizer parity over the TPC-H suite.

The optimizer is the two scan-pushdown passes plus a soundness check
and a plan hash, none of which may perturb a single byte of any
snapshot: for every query the optimized context run must match a
hand-assembled pipeline — materialize, pruning_pass, projection_pass,
StepExecutor — snapshot for snapshot, and with ``pushdown`` off the
plan must run exactly as written.
"""

import pytest

from repro import ExecutionOptions, WakeContext
from repro.analysis.schema_check import infer_plan, reachable_nodes
from repro.api import context
from repro.engine.executor import StepExecutor
from repro.engine.graph import QueryGraph
from repro.engine.ops.base import Operator
from repro.engine.planner import projection_pass, pruning_pass
from repro.tpch.queries import QUERIES

from tests.tpch.utils import assert_sequences_byte_identical

#: Same laptop-scale parameter overrides as test_queries.py.
OVERRIDES = {11: {"fraction": 0.005}, 18: {"threshold": 150}}


def _build(catalog, number, **ctx_kwargs):
    ctx = WakeContext(catalog, **ctx_kwargs)
    query = QUERIES[number]
    return ctx, query.build_plan(ctx, **OVERRIDES.get(number, {}))


def _legacy_run(catalog, number):
    """The two passes run by hand, bypassing the optimizer entirely."""
    _ctx, frame = _build(catalog, number)
    graph = QueryGraph()
    output = frame.plan.materialize(graph, {}, frame.context.options)
    pruning_pass(graph, output)
    projection_pass(graph, output, infer_plan(graph, output))
    return StepExecutor(graph, output, capture_all=True).run()


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_optimizer_sequences_match_legacy_planner(number, tpch):
    catalog, _tables = tpch
    ctx, frame = _build(catalog, number)
    got = ctx.run(frame)
    assert_sequences_byte_identical(
        got, _legacy_run(catalog, number), f"q{number}"
    )


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_no_optimize_matches_legacy_unpushed(number, tpch):
    """The switch really is the identity: ``pushdown=False`` equals
    materialize-and-execute with no passes."""
    catalog, _tables = tpch
    ctx, frame = _build(
        catalog, number, options=ExecutionOptions(pushdown=False),
    )
    got = ctx.run(frame)
    assert ctx.last_trace.total_rewrites == 0
    _ctx2, frame2 = _build(catalog, number)
    graph = QueryGraph()
    output = frame2.plan.materialize(graph, {}, frame2.context.options)
    expected = StepExecutor(graph, output, capture_all=True).run()
    assert_sequences_byte_identical(got, expected, f"q{number} raw")


def test_each_plan_state_derived_once(tpch, monkeypatch):
    """Building a plan derives each of its nodes once; a submit derives
    only after a pass that rewrote something (and a second submit of the
    same frame derives the same again); building the executor binds from
    the last derivation and derives nothing."""
    catalog, _tables = tpch
    calls = {"derive": 0, "executor": 0}
    derive = Operator.derive

    def counted(self, inputs):
        calls["derive"] += 1
        return derive(self, inputs)

    def build_executor(*args, **kwargs):
        before = calls["derive"]
        executor = StepExecutor(*args, **kwargs)
        calls["executor"] += calls["derive"] - before
        return executor

    monkeypatch.setattr(Operator, "derive", counted)
    monkeypatch.setattr(context, "StepExecutor", build_executor)
    for number in sorted(QUERIES):
        before = calls["derive"]
        ctx, frame = _build(catalog, number)
        built = calls["derive"] - before
        for _submit in range(2):
            before = calls["derive"]
            executor = ctx.executor_for(frame)
            planned = calls["derive"] - before
            nodes = reachable_nodes(executor.graph, executor.output)
            executor.close()
            assert built == len(nodes), f"q{number}"
            assert planned == len(nodes) * len(ctx.last_trace.rewrites), \
                f"q{number}"
    assert calls["executor"] == 0

"""Optimizer rewrite-soundness: after every rule firing, the plan's
inferred output schema, delivery, and strict-digest-visible source set
must be exactly what they were before the rewrite.

Checked three ways: every TPC-H plan through the full rule stack
(strict mode — any drift raises), each rule in isolation, and a hypothesis sweep over randomly composed filter/select/
aggregate chains."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import F, WakeContext, col
from repro.analysis import plan_fingerprint
from repro.engine.graph import QueryGraph
from repro.engine.optimizer import RULE_NAMES, build_optimizer
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
    output = frame.plan.materialize(graph, {})
    return graph, output


def _optimize_strict(frame, disable=()):
    graph, output = _materialize(frame)
    before = plan_fingerprint(graph, output)
    optimizer = build_optimizer(disable=disable)
    optimizer.strict = True
    graph, output, trace = optimizer.optimize(graph, output)
    after = plan_fingerprint(graph, output)
    return before, after, trace


# The "-1" id suffix is the K=1 of the retired sharded arm; it keeps
# test ids stable across that removal.
@pytest.mark.parametrize("number", sorted(QUERIES), ids=lambda n: f"{n}-1")
def test_tpch_rewrites_sound(tpch, number):
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    frame = QUERIES[number].build_plan(ctx, **OVERRIDES.get(number, {}))
    before, after, trace = _optimize_strict(frame)
    assert before is not None, f"q{number} not statically inferable"
    assert after == before
    assert trace.rewrites_sound
    for check in trace.checks:
        assert check.ok, f"{check.rule}: {check.detail}"


def _synthetic_frames(ctx):
    """Shapes TPC-H lacks: a select computing a column no aggregate
    reads (aggregate-projection) and a duplicated filter→aggregate
    chain over one scan (common-subplan)."""
    sales = ctx.table("sales")
    pruneable = sales.select(
        okey=col("okey"), qty=col("qty"), extra=col("qty") * 2
    ).agg(F.sum("qty").alias("s"), by=["okey"])

    def chain():
        return (
            sales.filter(col("qty") > 5.0)
            .agg(F.sum("qty").alias("s"), by=["okey"])
        )

    duplicated = chain().join(chain(), on=[("okey", "okey")])
    return [pruneable, duplicated]


@pytest.mark.parametrize("rule", RULE_NAMES)
def test_each_rule_in_isolation(tpch, catalog, rule):
    """Disable everything but one rule: its firings alone must also
    preserve the plan invariant (catches rules that only look sound
    because a later rule repairs their damage)."""
    tpch_catalog, _tables = tpch
    others = tuple(name for name in RULE_NAMES if name != rule)
    frames = []
    for number in sorted(QUERIES):
        ctx = WakeContext(tpch_catalog)
        frames.append((f"q{number}", QUERIES[number].build_plan(
            ctx, **OVERRIDES.get(number, {})
        )))
    frames += [
        (f"synthetic{i}", frame)
        for i, frame in enumerate(
            _synthetic_frames(WakeContext(catalog))
        )
    ]
    fired_anywhere = 0
    for label, frame in frames:
        before, after, trace = _optimize_strict(frame, disable=others)
        assert after == before, f"{label}: {rule} drifted the plan"
        fired_anywhere += sum(
            f.rewrites for f in trace.firings if f.rule == rule
        )
    assert fired_anywhere > 0, f"{rule} never fired on any plan"


def test_checks_recorded_in_trace(tpch):
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    frame = QUERIES[3].build_plan(ctx)
    _before, _after, trace = _optimize_strict(frame)
    assert trace.checks, "no rewrite checks recorded"
    assert any("rewrite checks:" in line for line in trace.render())


def test_unsound_rewrite_raises_in_strict_mode(catalog, monkeypatch):
    """Sabotage a rule so it fires but corrupts the plan: strict mode
    must refuse the rewrite with a structured error."""
    from repro.engine import optimizer as opt_mod
    from repro.engine.ops import SelectOperator

    ctx = WakeContext(catalog)
    frame = ctx.table("sales").filter(col("qty") > 1).filter(
        col("qty") < 49
    )
    graph, output = _materialize(frame)

    class DropColumn:
        name = "combine-filters"  # impersonate a known rule

        def apply(self, graph, output):
            node_id = graph.add(
                SelectOperator("narrow", [("okey", col("okey"))]),
                (output,),
            )
            return graph, node_id, 1

    optimizer = opt_mod.Optimizer([DropColumn()], [])
    optimizer.strict = True
    with pytest.raises(PlanValidationError) as info:
        optimizer.optimize(graph, output)
    assert info.value.code == "unsound-rewrite"

    # Non-strict: same corruption is recorded, not raised.
    graph, output = _materialize(frame)
    optimizer = opt_mod.Optimizer([DropColumn()], [])
    optimizer.strict = False
    _graph, _output, trace = optimizer.optimize(graph, output)
    assert not trace.rewrites_sound
    assert any(not check.ok for check in trace.checks)


def test_env_var_enables_strict(catalog, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_REWRITES", "1")
    optimizer = build_optimizer()
    assert optimizer.strict is True
    monkeypatch.setenv("REPRO_CHECK_REWRITES", "0")
    assert build_optimizer().strict is False


# -- hypothesis sweep over composed plans -----------------------------------

_PREDICATES = [
    col("qty") > 5.0,
    col("qty") < 45.0,
    col("okey") >= 3,
    col("cust") == "c1",
    col("region") != "east",
]

_AGGS = [
    lambda: F.sum("qty").alias("s"),
    lambda: F.avg("qty").alias("m"),
    lambda: F.count(None).alias("n"),
]


@given(
    pred_indexes=st.lists(
        st.integers(0, len(_PREDICATES) - 1), min_size=1, max_size=4
    ),
    project_first=st.booleans(),
    agg_index=st.one_of(
        st.none(), st.integers(0, len(_AGGS) - 1)
    ),
)
@_FIXTURE_OK
def test_random_chains_sound(catalog, pred_indexes, project_first,
                             agg_index):
    ctx = WakeContext(catalog)
    frame = ctx.table("sales")
    if project_first:
        frame = frame.project("okey", "qty", "cust", "region")
    for index in pred_indexes:
        frame = frame.filter(_PREDICATES[index])
    if agg_index is not None:
        frame = frame.agg(_AGGS[agg_index](), by=["okey"])
    before, after, trace = _optimize_strict(frame)
    assert before is not None
    assert after == before
    assert trace.rewrites_sound

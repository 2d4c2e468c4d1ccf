"""Plan optimization: the two scan pushdowns and their soundness check.

Planning rewrites a materialized :class:`~repro.engine.graph.QueryGraph`
with the scan pushdowns of :mod:`repro.engine.planner` — the column
projection dask-expr's ``.simplify()`` performs, plus zone-map
partition pruning — and nothing else.  Both are semantically invisible
(the paper's §4 premise that plans can be restructured without changing
snapshot semantics): the optimized plan's snapshot sequence is
byte-identical to the unoptimized plan's, enforced over all 22 TPC-H
queries by ``tests/tpch/test_optimizer_parity.py``.

:func:`optimize` reports how many scans each pass rewrote in an
:class:`OptimizerTrace`, which ``explain`` renders together with the
canonical :func:`~repro.engine.plan_node.plan_hash` of the optimized
plan.

Cost model (see ROADMAP performance notes): planning runs once per
submit, never during execution.  :func:`optimize` starts from the
plan's derivation, which a fluent-API plan already holds (each node
derived its stream when it was built); each pass is one O(nodes) graph
walk, and only a pass that rewrote something is followed by one
re-derivation, which is both the soundness check and the derivation the
executor binds from (guarded < 5 ms per TPC-H plan and per 16-join
chain by ``benchmarks/bench_optimizer.py``).
"""

from __future__ import annotations

from repro.errors import PlanValidationError, ReproError
from repro.analysis.schema_check import infer_plan, plan_fingerprint
from repro.core.properties import StreamInfo
from repro.engine.graph import QueryGraph
from repro.engine.planner import projection_pass, pruning_pass
from repro.engine.plan_node import plan_hash


class OptimizerTrace:
    """What the optimizer did to one submitted plan."""

    def __init__(self, infos: dict[int, StreamInfo]) -> None:
        #: Nodes rewritten per pass that rewrote any, in pass order.
        self.rewrites: dict[str, int] = {}
        self.plan_hash: str | None = None
        #: The derivation of the plan as optimized: every reachable
        #: node's output stream, what the executor binds from.
        self.infos = infos

    @property
    def total_rewrites(self) -> int:
        return sum(self.rewrites.values())

    def render(self) -> list[str]:
        """Human-readable lines for ``explain``."""
        lines = [f"optimizer: plan hash={self.plan_hash}"]
        if not self.rewrites:
            lines.append("  (no rewrites)")
        for rule, rewrites in self.rewrites.items():
            lines.append(f"  {rule}: {rewrites} node(s) rewritten")
        return lines


def optimize(
    graph: QueryGraph,
    output: int,
    infos: dict[int, StreamInfo] | None = None,
    pushdown: bool = True,
) -> OptimizerTrace:
    """Rewrite ``graph`` in place with the scan pushdowns.

    ``infos`` is the plan's :func:`~repro.analysis.schema_check.infer_plan`
    derivation (derived here when omitted).  With ``pushdown`` on, runs
    ``predicate-pushdown`` (:func:`~repro.engine.planner.pruning_pass`)
    then ``projection-pushdown``
    (:func:`~repro.engine.planner.projection_pass`).  Every pass that
    rewrote something is followed by a re-derivation: the plan's output
    schema (names + dtypes), delivery, and source set must equal the
    pre-rewrite plan's (see
    :func:`~repro.analysis.schema_check.plan_fingerprint`), else
    :class:`PlanValidationError` ``unsound-rewrite`` is raised.  The
    last derivation is left in :attr:`OptimizerTrace.infos`.
    """
    if infos is None:
        infos = infer_plan(graph, output)
    trace = OptimizerTrace(infos)
    if pushdown:
        expected = plan_fingerprint(graph, output, infos)
        _checked(trace, "predicate-pushdown", pruning_pass(graph, output),
                 expected, graph, output)
        _checked(trace, "projection-pushdown",
                 projection_pass(graph, output, trace.infos),
                 expected, graph, output)
    trace.plan_hash = plan_hash(graph, output)
    return trace


def _checked(
    trace: OptimizerTrace, rule: str, rewrites: int, expected,
    graph: QueryGraph, output: int,
) -> None:
    """Record that pass ``rule`` rewrote ``rewrites`` nodes; if any,
    re-derive the plan into :attr:`OptimizerTrace.infos`, checked
    against the fingerprint it had before the passes."""
    if not rewrites:
        return
    trace.rewrites[rule] = rewrites
    try:
        infos = infer_plan(graph, output)
    except ReproError as exc:
        detail = f"rewritten plan fails inference: {exc}"
    else:
        got = plan_fingerprint(graph, output, infos)
        if got == expected:
            trace.infos = infos
            return
        detail = (f"plan invariant drifted: expected {expected!r}, "
                  f"got {got!r}")
    raise PlanValidationError(
        "unsound-rewrite",
        f"optimizer pass {rule!r} produced an unsound rewrite: {detail}",
        operator=rule,
    )

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
submit, never during execution.  Each pass is one O(nodes) graph walk
plus, after a pass that rewrote something, one static re-inference of
the plan for the soundness check (guarded < 5 ms per TPC-H plan by
``benchmarks/bench_optimizer.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import PlanValidationError, ReproError
from repro.analysis.schema_check import plan_fingerprint
from repro.engine.graph import QueryGraph
from repro.engine.planner import projection_pass, pruning_pass
from repro.engine.plan_node import plan_hash


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteCheck:
    """Soundness verdict for one pass: did the rewritten plan keep the
    inferred output schema, delivery, and source set of the plan it
    replaced?"""

    rule: str
    ok: bool
    detail: str = ""


class OptimizerTrace:
    """What the optimizer did to one submitted plan."""

    def __init__(self) -> None:
        #: Nodes rewritten per pass that rewrote any, in pass order.
        self.rewrites: dict[str, int] = {}
        self.checks: list[RewriteCheck] = []
        self.plan_hash: str | None = None

    @property
    def rewrites_sound(self) -> bool:
        """True when every checked pass preserved the plan invariants
        (vacuously true when nothing fired)."""
        return all(c.ok for c in self.checks)

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
        if self.checks:
            sound = sum(1 for c in self.checks if c.ok)
            lines.append(
                f"  rewrite checks: {sound}/{len(self.checks)} sound"
            )
            for check in self.checks:
                if not check.ok:
                    lines.append(
                        f"    UNSOUND {check.rule}: {check.detail}"
                    )
        return lines


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _strict_rewrite_env() -> bool:
    """True when ``REPRO_CHECK_REWRITES`` asks for hard failure on
    rewrite drift (the CI mode)."""
    return os.environ.get("REPRO_CHECK_REWRITES", "") not in ("", "0")


def optimize(
    graph: QueryGraph,
    output: int,
    pushdown: bool = True,
    strict: bool | None = None,
) -> OptimizerTrace:
    """Rewrite ``graph`` in place with the scan pushdowns.

    With ``pushdown`` on, runs ``predicate-pushdown``
    (:func:`~repro.engine.planner.pruning_pass`) then
    ``projection-pushdown`` (:func:`~repro.engine.planner.projection_pass`).
    Every pass that rewrote something is followed by a soundness check:
    the plan's statically inferred output schema (names + dtypes),
    delivery, and source set must equal the pre-rewrite plan's (see
    :func:`~repro.analysis.schema_check.plan_fingerprint`).  Verdicts
    land in :attr:`OptimizerTrace.checks`; with ``strict`` (default: the
    ``REPRO_CHECK_REWRITES`` environment variable) set, drift raises
    :class:`PlanValidationError` instead of merely being recorded.
    Plans the derivation itself rejects skip checking (submit-time
    validation owns that failure).
    """
    if strict is None:
        strict = _strict_rewrite_env()
    trace = OptimizerTrace()
    if pushdown:
        expected = _fingerprint(graph, output)
        for name, run_pass in (
            ("predicate-pushdown", pruning_pass),
            ("projection-pushdown", projection_pass),
        ):
            rewrites = run_pass(graph, output)
            if rewrites:
                trace.rewrites[name] = rewrites
                if expected is not None:
                    _check(trace, name, expected, graph, output, strict)
    trace.plan_hash = plan_hash(graph, output)
    return trace


def _fingerprint(graph: QueryGraph, output: int):
    try:
        return plan_fingerprint(graph, output)
    except ReproError:
        # A plan the derivation itself rejects is not checkable;
        # submit-time validation owns that failure.
        return None


def _check(
    trace: OptimizerTrace,
    rule: str,
    expected,
    graph: QueryGraph,
    output: int,
    strict: bool,
) -> None:
    try:
        got = plan_fingerprint(graph, output)
        detail = "" if got == expected else (
            f"plan invariant drifted: expected {expected!r}, "
            f"got {got!r}"
        )
    except ReproError as exc:
        detail = f"rewritten plan fails inference: {exc}"
    ok = not detail
    trace.checks.append(RewriteCheck(rule, ok, detail))
    if not ok and strict:
        raise PlanValidationError(
            "unsound-rewrite",
            f"optimizer pass {rule!r} produced an unsound rewrite: "
            f"{detail}",
            operator=rule,
        )

"""Algebraic plan-rewrite engine: composable optimizer rules.

Planning is a small fixed-point rule engine over the
:class:`~repro.engine.graph.QueryGraph` algebra — the shape dask-expr's
``.simplify()`` converges on, and the property the paper's deep-OLA
engine assumes (§4: logical plans can be freely restructured without
changing snapshot semantics).

Two rule tiers:

* **Logical rules** run to a fixed point (each pass re-applies every
  rule until none rewrites anything): :class:`CombineFilters`,
  :class:`AggregateProjectionPrune`, :class:`CommonSubplanElimination`.
  Each is individually idempotent and byte-parity preserving — an
  optimized plan's snapshot sequence is byte-identical to the
  unoptimized plan's (the engine's parity contract, enforced over all
  22 TPC-H queries by ``tests/tpch/test_optimizer_parity.py``).
* **Physical rules** run exactly once, after the logical fixed point:
  :class:`ProjectionPushdown` and :class:`PredicatePushdown`
  (``planner.projection_pass`` / ``pruning_pass``).  They are
  one-shot: a second application finds nothing left to push.

Every rule reports how many nodes it rewrote into an
:class:`OptimizerTrace`, which ``explain`` renders together with the
canonical :func:`~repro.engine.plan_node.plan_hash` of the optimized
plan.

Cost model (see ROADMAP performance notes): the optimizer runs once per
submit, never during execution.  Each fixed-point pass is O(nodes ·
rules); the loop converges in a handful of passes because every logical
rewrite strictly shrinks the plan or canonicalizes an ordering, so total
planning cost is O(nodes · rules · passes) with passes ≤ ~3 in practice
(guarded < 5 ms per TPC-H plan by ``benchmarks/bench_optimizer.py``).

Byte-parity arguments, per logical rule:

* ``combine-filters`` — two stacked filters keep exactly the rows whose
  conjunction of masks is true; ``np.logical_and`` over boolean masks is
  exact, commutative, and associative, so one filter evaluating the
  combined (re-ordered) conjunction emits the same rows in the same
  order, one message per input message, just like the chain head did.
* ``aggregate-projection`` — an aggregate reads only its group keys and
  spec columns; dropping other select outputs cannot change any state
  the aggregate accumulates, and ``clustered_on`` (clustering ⊆ keys)
  is decided by columns that are all kept, so ``local_mode`` and the
  message cadence are unchanged.
* ``common-subplan`` — merging structurally identical single-input
  subtrees is gated on an *event-order proof*: the duplicates must share
  the same input node, sit consecutively in that input's subscriber
  list, and their consumer edges must concatenate in global (consumer,
  port) order.  Under the FIFO breadth-first executor those conditions
  make the merged node's fan-out events literally the same queue
  sequence the separate nodes produced, so every downstream operator
  sees the same messages in the same order.  Groups failing the check
  are left alone (they may merge on a later pass once other rewrites
  make them adjacent).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanValidationError, QueryError, ReproError
from repro.analysis.schema_check import plan_fingerprint
from repro.dataframe.expr import (
    BinaryExpr,
    CaseExpr,
    Column,
    Expr,
    IsInExpr,
    Literal,
    StringExpr,
    SubstrExpr,
    UnaryExpr,
    YearExpr,
)
from repro.engine.graph import QueryGraph
from repro.engine.ops import (
    AggregateOperator,
    FilterOperator,
    SelectOperator,
)
from repro.engine.planner import projection_pass, pruning_pass
from repro.engine.plan_node import (
    duplicate_groups,
    flatten_conjuncts,
    plan_hash,
)

#: Names of every rule the default optimizer knows, in application order.
LOGICAL_RULE_NAMES = (
    "combine-filters",
    "aggregate-projection",
    "common-subplan",
)
PHYSICAL_RULE_NAMES = (
    "predicate-pushdown",
    "projection-pushdown",
)
RULE_NAMES = LOGICAL_RULE_NAMES + PHYSICAL_RULE_NAMES

_MAX_PASSES = 10


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleFiring:
    """One rule application that rewrote something."""

    rule: str
    rewrites: int


@dataclass(frozen=True)
class RewriteCheck:
    """Soundness verdict for one rule firing: did the rewritten plan keep
    the inferred output schema, delivery, and strict-digest-visible
    source set of the plan it replaced?"""

    rule: str
    ok: bool
    detail: str = ""


class OptimizerTrace:
    """What the optimizer did to one submitted plan."""

    def __init__(self) -> None:
        self.firings: list[RuleFiring] = []
        self.checks: list[RewriteCheck] = []
        self.passes = 0
        self.plan_hash: str | None = None

    def record(self, rule: str, rewrites: int) -> None:
        if rewrites:
            self.firings.append(RuleFiring(rule, rewrites))

    def record_check(self, check: RewriteCheck) -> None:
        self.checks.append(check)

    @property
    def rewrites_sound(self) -> bool:
        """True when every checked firing preserved the plan invariants
        (vacuously true when nothing fired or checking was off)."""
        return all(c.ok for c in self.checks)

    @property
    def total_rewrites(self) -> int:
        return sum(f.rewrites for f in self.firings)

    def by_rule(self) -> dict[str, int]:
        """Total nodes rewritten per rule, in first-fired order."""
        totals: dict[str, int] = {}
        for firing in self.firings:
            totals[firing.rule] = totals.get(firing.rule, 0) \
                + firing.rewrites
        return totals

    def render(self) -> list[str]:
        """Human-readable lines for ``explain``."""
        lines = [
            f"optimizer: {self.passes} pass(es), "
            f"plan hash={self.plan_hash}"
        ]
        totals = self.by_rule()
        if not totals:
            lines.append("  (no rewrites)")
        for rule, rewrites in totals.items():
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
# Graph rebuilding
# ---------------------------------------------------------------------------

def _resolve_skip(skip: dict[int, int], nid: int) -> int:
    while nid in skip:
        nid = skip[nid]
    return nid


def _rebuild(
    graph: QueryGraph,
    output: int,
    skip: dict[int, int],
    replace: dict[int, object],
) -> tuple[QueryGraph, int]:
    """Rebuild the graph, dropping ``skip`` nodes (each forwards to an
    earlier node id) and swapping ``replace`` operators in place.
    Relative node order — hence subscriber and scheduling order — is
    preserved."""
    new = QueryGraph()
    mapping: dict[int, int] = {}
    for nid in sorted(graph.nodes):
        if nid in skip:
            continue
        node = graph.node(nid)
        operator = replace.get(nid, node.operator)
        inputs = tuple(
            mapping[_resolve_skip(skip, i)] for i in node.inputs
        )
        mapping[nid] = new.add(operator, inputs)
    return new, mapping[_resolve_skip(skip, output)]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Rule:
    """One rewrite: ``apply`` returns the (possibly new) graph, the new
    output id, and how many nodes it rewrote (0 = fixed point)."""

    name = "?"

    def apply(
        self, graph: QueryGraph, output: int
    ) -> tuple[QueryGraph, int, int]:
        raise NotImplementedError


def _conjunct_rank(expr: Expr) -> int:
    """Evaluation-cost rank for conjunct ordering: sargable bare-column
    comparisons first (cheapest, and the shapes zone maps can use), then
    other numeric predicates, then string predicates (per-row unicode
    work) last."""
    if _has_string_work(expr):
        return 2
    if _is_sargable_shape(expr):
        return 0
    return 1


def _is_sargable_shape(expr: Expr) -> bool:
    if isinstance(expr, BinaryExpr) and expr.symbol in (
        "<", "<=", ">", ">=", "=="
    ):
        sides = (expr.left, expr.right)
        return any(isinstance(s, Column) for s in sides) and any(
            isinstance(s, Literal) for s in sides
        )
    return False


def _has_string_work(expr: Expr) -> bool:
    if isinstance(expr, (StringExpr, SubstrExpr)):
        return True
    if isinstance(expr, BinaryExpr):
        return _has_string_work(expr.left) or _has_string_work(expr.right)
    if isinstance(expr, (UnaryExpr, YearExpr, IsInExpr)):
        return _has_string_work(expr.inner)
    if isinstance(expr, CaseExpr):
        return (
            _has_string_work(expr.cond)
            or _has_string_work(expr.then)
            or _has_string_work(expr.otherwise)
        )
    return False


def _conjoin(conjuncts: list[Expr]) -> Expr:
    pred = conjuncts[0]
    for term in conjuncts[1:]:
        pred = BinaryExpr(pred, term, np.logical_and, "&")
    return pred


class CombineFilters(Rule):
    """Collapse single-subscriber filter chains into one filter and
    order the conjuncts cheapest-sargable first.

    Mask conjunction over booleans is exact and commutative, so the
    combined filter keeps identical rows in identical order and emits
    one message per input message exactly as the chain head did —
    byte-identical sequences, fewer frame copies, and the sargable
    conjuncts run first so later, costlier conjuncts see short-circuit
    benefit in evaluation cost (not semantics).
    """

    name = "combine-filters"

    def apply(self, graph, output):
        subs = graph.subscribers()
        skip: dict[int, int] = {}
        replace: dict[int, object] = {}
        rewrites = 0
        for nid in sorted(graph.nodes):
            node = graph.node(nid)
            op = node.operator
            if not isinstance(op, FilterOperator):
                continue
            # Only chain heads rewrite; an absorbed filter is one whose
            # single subscriber is another filter.
            if len(subs[nid]) == 1:
                consumer, _port = subs[nid][0]
                if isinstance(
                    graph.node(consumer).operator, FilterOperator
                ):
                    continue
            chain: list[int] = []
            cur = node.inputs[0]
            while True:
                upstream = graph.node(cur)
                if not isinstance(upstream.operator, FilterOperator):
                    break
                if len(subs[cur]) != 1:
                    break
                chain.append(cur)
                cur = upstream.inputs[0]
            conjuncts: list[Expr] = []
            for cid in reversed(chain):  # outermost-upstream first
                conjuncts.extend(
                    flatten_conjuncts(graph.node(cid).operator.predicate)
                )
            conjuncts.extend(flatten_conjuncts(op.predicate))
            ordered = sorted(conjuncts, key=_conjunct_rank)
            # Expr overloads ==, so compare object identity per slot.
            reordered = [id(e) for e in ordered] != [
                id(e) for e in conjuncts
            ]
            if not chain and not reordered:
                continue
            for cid in chain:
                skip[cid] = graph.node(cid).inputs[0]
            replace[nid] = FilterOperator(op.name, _conjoin(ordered))
            rewrites += len(chain) + (1 if reordered else 0)
        if not rewrites:
            return graph, output, 0
        graph, output = _rebuild(graph, output, skip, replace)
        return graph, output, rewrites


class AggregateProjectionPrune(Rule):
    """Drop select outputs nothing downstream of an aggregate can read.

    When an aggregate is the sole consumer of a select, every output
    except the group keys and spec columns is computed and thrown away.
    Pruning them cannot change aggregate state, and ``local_mode``
    (clustering ⊆ group keys) is decided by columns that are all kept,
    so cadence and content are untouched.  Selects with
    ``propagate_ci`` are left alone (their sigma side-channel is not
    visible in ``exprs``).
    """

    name = "aggregate-projection"

    def apply(self, graph, output):
        subs = graph.subscribers()
        replace: dict[int, object] = {}
        rewrites = 0
        for nid in sorted(graph.nodes):
            op = graph.node(nid).operator
            if not isinstance(op, AggregateOperator):
                continue
            sid = graph.node(nid).inputs[0]
            if sid in replace or len(subs[sid]) != 1:
                continue
            sop = graph.node(sid).operator
            if not isinstance(sop, SelectOperator) or sop.propagate_ci:
                continue
            needed = set(op.by) | {
                spec.column for spec in op.specs
                if spec.column is not None
            }
            kept = [(name, e) for name, e in sop.exprs if name in needed]
            if len(kept) == len(sop.exprs):
                continue
            if not kept:
                # Count-style aggregates read no columns; keep one output
                # so the frame keeps its row count.
                kept = [sop.exprs[0]]
            replace[sid] = SelectOperator(
                sop.name, kept, propagate_ci=False
            )
            rewrites += 1
        if not rewrites:
            return graph, output, 0
        graph, output = _rebuild(graph, output, {}, replace)
        return graph, output, rewrites


class CommonSubplanElimination(Rule):
    """Merge structurally identical subtrees into one operator with
    fan-out.

    Candidates are operators that declare themselves ``mergeable``:
    single-input, deterministic and message-per-message (their event
    interleaving is what the order proof reasons about).  Sources
    (progress counters are per-source) and MapPartitions (arbitrary
    callables may be stateful) do not.

    A duplicate group merges only when doing so provably preserves the
    executor's FIFO event order (see module docstring): same input node,
    consecutive in the input's subscriber list, and consumer edges that
    concatenate already-sorted.  Everything else is left for a later
    pass or not merged at all — correctness first, savings second.
    """

    name = "common-subplan"

    def apply(self, graph, output):
        groups = duplicate_groups(graph)
        if not groups:
            return graph, output, 0
        subs = graph.subscribers()
        skip: dict[int, int] = {}
        rewrites = 0
        for ids in sorted(groups.values()):
            candidates = [i for i in ids if i != output]
            # Partition by exact input node ids: digests prove the input
            # *subtrees* match, merging needs the very same node.
            by_inputs: dict[tuple[int, ...], list[int]] = {}
            for nid in candidates:
                by_inputs.setdefault(
                    graph.node(nid).inputs, []
                ).append(nid)
            for inputs, members in sorted(by_inputs.items()):
                if len(members) < 2 or not inputs:
                    continue
                if not self._order_preserved(subs, inputs[0], members):
                    continue
                rep = members[0]
                for dup in members[1:]:
                    skip[dup] = rep
                    rewrites += 1
        if not rewrites:
            return graph, output, 0
        graph, output = _rebuild(graph, output, skip, {})
        return graph, output, rewrites

    @staticmethod
    def _order_preserved(subs, input_id, members):
        """True when merging ``members`` (ascending ids, all single-input
        consumers of ``input_id``) cannot change the executor's event
        sequence."""
        # (1) Consecutive in the input's subscriber list: the separate
        # (node, msg) events were adjacent in the FIFO queue, so their
        # emissions landed back-to-back — exactly what the merged node's
        # single emission produces.
        member_set = set(members)
        positions = [
            i for i, (cid, _p) in enumerate(subs[input_id])
            if cid in member_set
        ]
        if len(positions) != len(members):
            return False
        if positions != list(range(positions[0], positions[-1] + 1)):
            return False
        # (2) The merged node fans out to all consumers in (consumer,
        # port) order; that must equal the concatenation of the members'
        # own consumer lists (rep's consumers first, then each dup's).
        concatenated = [
            edge for member in members for edge in subs[member]
        ]
        return concatenated == sorted(concatenated)


class PredicatePushdown(Rule):
    """Thread sargable filter conjuncts into the scans for zone-map
    partition pruning."""

    name = "predicate-pushdown"

    def apply(self, graph, output):
        return graph, output, pruning_pass(graph, output)


class ProjectionPushdown(Rule):
    """Narrow scans to downstream-referenced columns."""

    name = "projection-pushdown"

    def apply(self, graph, output):
        return graph, output, projection_pass(graph, output)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _strict_rewrite_env() -> bool:
    """True when ``REPRO_CHECK_REWRITES`` asks for hard failure on
    rewrite drift (the CI mode)."""
    return os.environ.get("REPRO_CHECK_REWRITES", "") not in ("", "0")


class Optimizer:
    """Run logical rules to a fixed point, then physical rules once.

    Every firing is followed by a rewrite-soundness check: the rewritten
    plan's statically inferred output schema (names + dtypes), delivery,
    and strict-digest-visible source set must equal the pre-rewrite
    plan's (see :mod:`repro.analysis.schema_check`).  Verdicts land in
    :attr:`OptimizerTrace.checks`; with ``strict`` (or the
    ``REPRO_CHECK_REWRITES`` environment variable) set, drift raises
    :class:`PlanValidationError` instead of merely being recorded.
    Plans the derivation itself rejects skip checking (submit-time
    validation owns that failure).
    """

    def __init__(
        self,
        logical: list[Rule],
        physical: list[Rule],
        max_passes: int = _MAX_PASSES,
        strict: bool | None = None,
    ) -> None:
        self.logical = logical
        self.physical = physical
        self.max_passes = max_passes
        self.strict = _strict_rewrite_env() if strict is None else strict

    def optimize(
        self, graph: QueryGraph, output: int
    ) -> tuple[QueryGraph, int, OptimizerTrace]:
        trace = OptimizerTrace()
        expected = self._fingerprint(graph, output)
        if self.logical:
            for _ in range(self.max_passes):
                trace.passes += 1
                changed = 0
                for rule in self.logical:
                    graph, output, rewrites = rule.apply(graph, output)
                    trace.record(rule.name, rewrites)
                    if rewrites:
                        self._check(
                            trace, rule.name, expected, graph, output
                        )
                    changed += rewrites
                if not changed:
                    break
        for rule in self.physical:
            graph, output, rewrites = rule.apply(graph, output)
            trace.record(rule.name, rewrites)
            if rewrites:
                self._check(trace, rule.name, expected, graph, output)
        trace.plan_hash = plan_hash(graph, output)
        return graph, output, trace

    @staticmethod
    def _fingerprint(graph: QueryGraph, output: int):
        try:
            return plan_fingerprint(graph, output)
        except ReproError:
            # A plan the derivation itself rejects is not checkable;
            # submit-time validation owns that failure.
            return None

    def _check(
        self,
        trace: OptimizerTrace,
        rule: str,
        expected,
        graph: QueryGraph,
        output: int,
    ) -> None:
        if expected is None:
            return
        try:
            got = self._fingerprint(graph, output)
            detail = "" if got == expected else (
                f"plan invariant drifted: expected {expected!r}, "
                f"got {got!r}"
            )
        except ReproError as exc:  # pragma: no cover - defensive
            got, detail = None, f"rewritten plan fails inference: {exc}"
        ok = not detail
        trace.record_check(RewriteCheck(rule, ok, detail))
        if not ok and self.strict:
            raise PlanValidationError(
                "unsound-rewrite",
                f"optimizer rule {rule!r} produced an unsound rewrite: "
                f"{detail}",
                operator=rule,
            )


def validate_rule_names(names) -> frozenset[str]:
    """Normalize and validate a user-supplied rule-name collection."""
    names = frozenset(names)
    unknown = names - set(RULE_NAMES)
    if unknown:
        raise QueryError(
            f"unknown optimizer rule(s) {sorted(unknown)}; known rules: "
            f"{list(RULE_NAMES)}"
        )
    return names


def build_optimizer(
    pushdown: bool = True,
    optimize: bool = True,
    disable=(),
) -> Optimizer:
    """The default rule stack, honoring every escape hatch.

    ``optimize=False`` turns off every optimization rule.
    ``pushdown=False`` is the historical
    scan-pushdown switch (projection + pruning only).  ``disable``
    removes individual rules by name.
    """
    off = set(validate_rule_names(disable))
    if not optimize:
        off |= set(LOGICAL_RULE_NAMES)
        off |= {"predicate-pushdown", "projection-pushdown"}
    if not pushdown:
        off |= {"predicate-pushdown", "projection-pushdown"}
    logical: list[Rule] = [
        rule
        for rule in (
            CombineFilters(),
            AggregateProjectionPrune(),
            CommonSubplanElimination(),
        )
        if rule.name not in off
    ]
    physical: list[Rule] = [
        rule
        for rule in (PredicatePushdown(), ProjectionPushdown())
        if rule.name not in off
    ]
    return Optimizer(logical, physical)

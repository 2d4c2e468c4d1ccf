"""Canonical structural plan forms and stable plan hashing.

The optimizer (``repro.engine.optimizer``) needs two related notions of
"the same plan":

* **strict structural equality** — two nodes compute byte-identical
  message streams when fed the same inputs.  This is what common-subplan
  elimination may merge.  Operator *names* are excluded (they carry a
  per-plan counter), but anything that affects output bytes — select
  output order, aggregate spec order — is kept verbatim.
* **α-equivalence** — a coarser, order-insensitive form used for
  :func:`plan_hash`: commuted conjuncts (``a & b`` vs ``b & a``),
  literal-on-the-left comparisons (``5 < x`` vs ``x > 5``), select
  rename order, and scan source labels are all normalized away.  Two
  α-equivalent plans answer the same query, so the hash is a sound cache
  key for shared-scan / snapshot caching (ROADMAP item 1).

Both are built from each operator's own ``signature(alpha)`` method
(:class:`repro.engine.ops.base.Operator`): an operator class that does
not define one gets a globally *unique* opaque signature, so unknown
operators can never be merged by CSE and two plans containing them can
never collide to one hash — conservative by construction.

Nothing here imports the operators: they import :func:`canon_expr`
for their signatures, not the other way round.

Canonicalization of expressions is bit-exactness-preserving: only
transforms that cannot change a single output byte are applied (operand
swaps of commutative ufuncs, flattening of associative boolean chains,
comparison flips).  Floating-point *re-association* is never performed.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from repro.engine.graph import QueryGraph

#: Binary symbols whose numpy kernels are elementwise-commutative, so
#: swapping operands is bitwise invisible (IEEE-754 + and * commute
#: exactly; only re-association is lossy, and we never re-associate).
_COMMUTATIVE = {"+", "*", "==", "!=", "&", "|"}

#: Comparison flips for moving literals to the right-hand side.
_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


# ---------------------------------------------------------------------------
# Expression canonicalization
# ---------------------------------------------------------------------------

def flatten_conjuncts(expr: Expr) -> list[Expr]:
    """The top-level ``&`` conjuncts of ``expr`` in syntactic order."""
    if isinstance(expr, BinaryExpr) and expr.symbol == "&":
        return flatten_conjuncts(expr.left) + flatten_conjuncts(expr.right)
    return [expr]


def canon_expr(expr: Expr) -> tuple:
    """A hashable canonical form of ``expr``.

    Two expressions with equal canonical forms evaluate to bitwise the
    same array on every frame: commuted operands of commutative ops,
    flattened/sorted ``&``/``|`` chains, flipped literal-on-left
    comparisons, and sorted ``isin`` sets all collapse to one form.
    Unknown :class:`Expr` subclasses get a unique opaque form (never
    equal to anything else).
    """
    if isinstance(expr, Column):
        return ("col", expr.name)
    if isinstance(expr, Literal):
        value = expr.value
        return ("lit", type(value).__name__, repr(value))
    if isinstance(expr, BinaryExpr):
        symbol = expr.symbol
        left, right = expr.left, expr.right
        if symbol in _FLIPPED and isinstance(left, Literal) \
                and not isinstance(right, Literal):
            left, right = right, left
            symbol = _FLIPPED[symbol]
        if symbol in ("&", "|"):
            terms = _flatten(expr, symbol)
            return (symbol, tuple(sorted(canon_expr(t) for t in terms)))
        lhs, rhs = canon_expr(left), canon_expr(right)
        if symbol in _COMMUTATIVE and rhs < lhs:
            lhs, rhs = rhs, lhs
        return ("bin", symbol, lhs, rhs)
    if isinstance(expr, UnaryExpr):
        return ("un", expr.symbol, canon_expr(expr.inner))
    if isinstance(expr, StringExpr):
        return ("str", expr.kind, expr.needle, canon_expr(expr.inner))
    if isinstance(expr, IsInExpr):
        values = tuple(sorted(repr(v) for v in expr.values))
        return ("isin", canon_expr(expr.inner), values)
    if isinstance(expr, YearExpr):
        return ("year", canon_expr(expr.inner))
    if isinstance(expr, SubstrExpr):
        return ("substr", expr.start, expr.length, canon_expr(expr.inner))
    if isinstance(expr, CaseExpr):
        return ("case", canon_expr(expr.cond), canon_expr(expr.then),
                canon_expr(expr.otherwise))
    return ("opaque-expr", type(expr).__name__, id(expr))


def _flatten(expr: Expr, symbol: str) -> list[Expr]:
    if isinstance(expr, BinaryExpr) and expr.symbol == symbol:
        return _flatten(expr.left, symbol) + _flatten(expr.right, symbol)
    return [expr]


# ---------------------------------------------------------------------------
# Whole-plan digests
# ---------------------------------------------------------------------------

def node_digests(graph: QueryGraph, alpha: bool = False) -> dict[int, str]:
    """Per-node digest of the subtree rooted at each node.

    Two nodes share a digest iff their operator signatures (type name
    plus the operator's own ``signature(alpha)``) and their whole input
    subtrees match (port order preserved — joins are not symmetric).  Insertion order is topological, so one forward sweep
    suffices.
    """
    digests: dict[int, str] = {}
    for nid in sorted(graph.nodes):
        node = graph.node(nid)
        op = node.operator
        signature = (type(op).__name__,) + tuple(op.signature(alpha))
        payload = repr(
            (signature, tuple(digests[i] for i in node.inputs))
        )
        digests[nid] = hashlib.sha256(payload.encode()).hexdigest()
    return digests


def plan_hash(graph: QueryGraph, output: int) -> str:
    """Stable α-equivalence hash of the plan rooted at ``output``.

    Equal for plans that differ only in select rename order, commuted
    conjuncts/commutative operands, flipped comparisons, scan source
    labels, or operator-name counters; different whenever any literal,
    column, aggregate spec, join shape, or table differs.  16 hex chars
    (64 bits) — the shared-scan/snapshot-cache key of ROADMAP item 1.
    """
    graph.validate_output(output)
    return node_digests(graph, alpha=True)[output][:16]


def plans_alpha_equal(
    a: QueryGraph, a_output: int, b: QueryGraph, b_output: int
) -> bool:
    """True when the two plans are α-equivalent (same :func:`plan_hash`
    preimage, compared at full digest width)."""
    return (
        node_digests(a, alpha=True)[a_output]
        == node_digests(b, alpha=True)[b_output]
    )


def duplicate_groups(graph: QueryGraph) -> dict[str, list[int]]:
    """Strict-digest groups with more than one node, restricted to
    operators that declare themselves ``mergeable`` (the CSE
    candidates), keyed by digest, node ids ascending."""
    digests = node_digests(graph, alpha=False)
    groups: dict[str, list[int]] = {}
    for nid in sorted(graph.nodes):
        if graph.node(nid).operator.mergeable:
            groups.setdefault(digests[nid], []).append(nid)
    return {d: ids for d, ids in groups.items() if len(ids) > 1}

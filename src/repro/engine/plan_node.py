"""Canonical plan forms and the stable plan hash.

:func:`plan_hash` is the result cache's key (``repro.service``): two
plans with equal hashes must produce byte-identical snapshots.
It is built from each operator's own ``signature()`` method
(:class:`repro.engine.ops.base.Operator`), which keeps every detail that
can change what a snapshot says — select output order, aggregate spec
order, join key order, the scan source labels its progress is keyed by
— and drops only what cannot: operator names.  Expressions enter through
:func:`canon_expr`, which collapses forms that evaluate to bitwise the
same array (commuted conjuncts ``a & b`` vs ``b & a``, literal-on-the-
left comparisons ``5 < x`` vs ``x > 5``).  An operator class that does
not define ``signature`` gets a globally *unique* opaque one, so two
plans containing it never collide to one hash — conservative by
construction.

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
# Plan hash
# ---------------------------------------------------------------------------

def plan_hash(graph: QueryGraph, output: int) -> str:
    """Stable hash of the plan rooted at ``output``.

    Equal for plans that differ only in commuted conjuncts/commutative
    operands, flipped comparisons, aggregate-name synonyms, or
    operator-name counters; different whenever any literal, column,
    output order, aggregate spec, join shape, table or scan source label
    differs.
    16 hex chars (64 bits) — the result-cache key.
    """
    graph.validate_output(output)
    # Per-node digest of the subtree rooted at each node: operator type
    # and signature plus the input digests in port order (joins are not
    # symmetric).  Insertion order is topological, so one forward sweep
    # suffices.
    digests: dict[int, str] = {}
    for nid in sorted(graph.nodes):
        node = graph.node(nid)
        op = node.operator
        signature = (type(op).__name__,) + tuple(op.signature())
        payload = repr(
            (signature, tuple(digests[i] for i in node.inputs))
        )
        digests[nid] = hashlib.sha256(payload.encode()).hexdigest()
    return digests[output][:16]

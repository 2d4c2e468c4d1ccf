"""Expression typing and the unbound plan walk (layer 1 of the
static-analysis subsystem).

Each operator derives its own output :class:`StreamInfo` — schema,
dtypes, attribute kinds, keys, clustering, delivery — in
``Operator._derive_info`` and raises a coded
:class:`PlanValidationError` for every malformed-plan class:

* ``undefined-column``  — a referenced column no upstream node produces;
* ``type-mismatch``     — comparing/joining a string against a number,
  arithmetic over strings, a non-boolean filter predicate;
* ``non-numeric-agg``   — sum/avg/… over a string column (only ``count``
  and ``count_distinct`` accept any dtype);
* ``duplicate-output``  — an output name collides even after the join
  suffix rules;
* ``delivery-misuse``   — REPLACE/DELTA contract violations: merge join
  over non-DELTA or unclustered inputs, grouping by a mutable
  attribute.

This module holds the two pieces that are not per-operator:
:func:`expr_dtype`, the dtype an ``Expr`` tree evaluates to over a
schema (what the operators call instead of evaluating expressions on
probe frames), and :func:`infer_plan`, the graph walk that runs every
reachable operator's derivation *without binding*.  A fluent-API plan
never needs the walk to be validated: each ``PlanNode`` derives itself
when built.  A submit runs it only after a pushdown pass that rewrote
something (the optimizer's soundness check); the executor binds from
the last derivation, within the < 5 ms planning budget
(``benchmarks/bench_optimizer.py``).

Nothing here imports ``repro.engine``: the operators import
:func:`expr_dtype`, not the other way round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PlanValidationError
from repro.core.properties import StreamInfo
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
from repro.dataframe.schema import DType, Schema

if TYPE_CHECKING:
    from repro.engine.graph import QueryGraph


# ---------------------------------------------------------------------------
# Expression dtype inference
# ---------------------------------------------------------------------------

_ARITHMETIC = ("+", "-", "*", "/")
_COMPARISONS = (">", ">=", "<", "<=", "==", "!=")
_LOGICAL = ("&", "|")


def _literal_dtype(value: object) -> DType | None:
    # bool is an int subclass: test it first.
    if isinstance(value, bool):
        return DType.BOOL
    if isinstance(value, int):
        return DType.INT64
    if isinstance(value, float):
        return DType.FLOAT64
    if isinstance(value, str):
        return DType.STRING
    return None  # numpy scalars, dates-as-objects: leave unknown


def _numericish(dtype: DType) -> bool:
    """Types numpy arithmetic/comparison kernels accept together.

    BOOL participates (it is physically 0/1); only STRING is excluded.
    """
    return dtype is not DType.STRING


def _promote(left: DType, right: DType) -> DType:
    if DType.FLOAT64 in (left, right):
        return DType.FLOAT64
    if left == right:
        return left
    # Mixed INT64/DATE/BOOL arithmetic lands in int64 physically.
    return DType.INT64


def expr_dtype(expr: Expr, schema: Schema, ctx) -> DType | None:
    """Infer the dtype an expression evaluates to over ``schema``.

    Raises :class:`PlanValidationError` for undefined columns and
    type-mismatched operations; returns ``None`` when the dtype cannot
    be determined statically (unknown literal or Expr subclass).
    ``ctx.fail(code, message, column=...)`` builds the error — the
    operator that owns the expression passes itself.
    """
    if isinstance(expr, Column):
        if expr.name not in schema:
            raise ctx.fail(
                "undefined-column",
                f"unknown column {expr.name!r}; available: "
                f"{list(schema.names)}",
                column=expr.name,
            )
        return schema.dtype(expr.name)
    if isinstance(expr, Literal):
        return _literal_dtype(expr.value)
    if isinstance(expr, BinaryExpr):
        left = expr_dtype(expr.left, schema, ctx)
        right = expr_dtype(expr.right, schema, ctx)
        return _binary_dtype(expr, left, right, ctx)
    if isinstance(expr, UnaryExpr):
        inner = expr_dtype(expr.inner, schema, ctx)
        if expr.symbol == "~":
            if inner is not None and inner is DType.STRING:
                raise ctx.fail(
                    "type-mismatch",
                    f"cannot negate (~) string expression {expr.inner!r}",
                )
            return DType.BOOL
        # "-" / "abs": numeric only (numpy refuses to negate booleans);
        # DATE arithmetic lands in int64.
        if inner is DType.STRING or (
            inner is DType.BOOL and expr.symbol == "-"
        ):
            raise ctx.fail(
                "type-mismatch",
                f"{expr.symbol!r} requires a numeric operand, got "
                f"{inner.value} from {expr.inner!r}",
            )
        return DType.INT64 if inner is DType.DATE else inner
    if isinstance(expr, (StringExpr, SubstrExpr)):
        # Runtime coerces any input through ``astype(str)``; inference
        # stays permissive and only pins the result dtype.
        expr_dtype(expr.inner, schema, ctx)
        return (DType.BOOL if isinstance(expr, StringExpr)
                else DType.STRING)
    if isinstance(expr, IsInExpr):
        inner = expr_dtype(expr.inner, schema, ctx)
        value_dtypes = {
            _literal_dtype(v) for v in expr.values
        } - {None}
        if inner is not None and value_dtypes:
            inner_str = inner is DType.STRING
            values_str = DType.STRING in value_dtypes
            if inner_str != values_str:
                raise ctx.fail(
                    "type-mismatch",
                    f"isin values {list(expr.values)!r} do not match "
                    f"column dtype {inner.value} (membership over mixed "
                    f"string/number types matches nothing)",
                )
        return DType.BOOL
    if isinstance(expr, YearExpr):
        inner = expr_dtype(expr.inner, schema, ctx)
        if inner is not None and not _numericish(inner):
            raise ctx.fail(
                "type-mismatch",
                f"year() requires a DATE (days-since-epoch) column, got "
                f"{inner.value} from {expr.inner!r}",
            )
        return DType.INT64
    if isinstance(expr, CaseExpr):
        cond = expr_dtype(expr.cond, schema, ctx)
        if cond is not None and cond is DType.STRING:
            raise ctx.fail(
                "type-mismatch",
                f"CASE condition {expr.cond!r} is a string, expected a "
                f"boolean predicate",
            )
        then = expr_dtype(expr.then, schema, ctx)
        other = expr_dtype(expr.otherwise, schema, ctx)
        if then is None or other is None:
            return None
        if (then is DType.STRING) != (other is DType.STRING):
            raise ctx.fail(
                "type-mismatch",
                f"CASE arms have incompatible dtypes: {then.value} vs "
                f"{other.value}",
            )
        if then is DType.STRING:
            return DType.STRING
        if then is DType.BOOL and other is DType.BOOL:
            return DType.BOOL
        return _promote(then, other)
    # Unknown Expr subclass: untypable, but its columns must resolve.
    for name in sorted(expr.columns() - set(schema.names)):
        raise ctx.fail(
            "undefined-column",
            f"unknown column {name!r}; available: {list(schema.names)}",
            column=name,
        )
    return None


def _binary_dtype(
    expr: BinaryExpr, left: DType | None, right: DType | None, ctx,
) -> DType | None:
    symbol = expr.symbol
    known = [d for d in (left, right) if d is not None]
    if symbol in _COMPARISONS:
        if len(known) == 2 and (
            (left is DType.STRING) != (right is DType.STRING)
        ):
            raise ctx.fail(
                "type-mismatch",
                f"cannot compare {left.value} with {right.value} in "
                f"{expr!r}",
            )
        return DType.BOOL
    if symbol in _LOGICAL:
        for side, dtype in ((expr.left, left), (expr.right, right)):
            if dtype is DType.STRING:
                raise ctx.fail(
                    "type-mismatch",
                    f"{symbol!r} requires boolean operands, got string "
                    f"from {side!r}",
                )
        return DType.BOOL
    if symbol in _ARITHMETIC:
        for side, dtype in ((expr.left, left), (expr.right, right)):
            if dtype is DType.STRING:
                raise ctx.fail(
                    "type-mismatch",
                    f"arithmetic {symbol!r} over string expression "
                    f"{side!r}",
                )
        if symbol == "/":
            return DType.FLOAT64
        if len(known) < 2:
            return None
        if left is DType.BOOL and right is DType.BOOL:
            # numpy keeps bool + bool / bool * bool boolean (logical
            # or / and) and refuses bool - bool.
            if symbol == "-":
                raise ctx.fail(
                    "type-mismatch",
                    f"cannot subtract booleans in {expr!r}",
                )
            return DType.BOOL
        if left in (DType.DATE, DType.BOOL) or right in (
            DType.DATE, DType.BOOL
        ):
            return _promote(
                DType.INT64 if left in (DType.DATE, DType.BOOL) else left,
                DType.INT64 if right in (DType.DATE, DType.BOOL)
                else right,
            )
        return _promote(left, right)
    return None


# ---------------------------------------------------------------------------
# Graph walk
# ---------------------------------------------------------------------------

def reachable_nodes(graph: QueryGraph, output: int) -> list[int]:
    """Node ids reachable from ``output`` in ascending (= topological)
    order."""
    seen: set[int] = set()
    stack = [output]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(graph.node(nid).inputs)
    return sorted(seen)


def infer_plan(graph: QueryGraph, output: int) -> dict[int, StreamInfo]:
    """Every reachable node's output stream, derived by the operators
    themselves without binding them: the optimizer's re-derivation
    after a rewrite, and the validation of a graph built by hand.
    Raises :class:`PlanValidationError` on the first malformed node,
    pinned to that node's id, before any partition is read."""
    infos: dict[int, StreamInfo] = {}
    for nid in reachable_nodes(graph, output):
        node = graph.node(nid)
        try:
            infos[nid] = node.operator.derive(
                tuple(infos[i] for i in node.inputs)
            )
        except PlanValidationError as exc:
            exc.pin(nid)
            raise
    return infos


def source_labels(graph: QueryGraph, output: int) -> frozenset[str]:
    """The reachable source set: the progress label of every source
    reachable from ``output``.  Sound rewrites must
    preserve it — a rewrite that drops or relabels a scan changes which
    progress counters exist and therefore the snapshot contract."""
    operators = (
        graph.node(nid).operator for nid in graph.upstream_sources(output)
    )
    return frozenset(
        getattr(op, "source_name", op.name) for op in operators
    )


def plan_fingerprint(graph: QueryGraph, output: int,
                     infos: dict[int, StreamInfo] | None = None):
    """The rewrite-soundness invariant: the output node's column names
    + dtypes, its delivery, and the reachable source set.  ``infos`` is
    the plan's :func:`infer_plan` derivation (derived here when
    omitted)."""
    if infos is None:
        infos = infer_plan(graph, output)
    out = infos[output]
    return (
        tuple((f.name, f.dtype.value) for f in out.schema.fields),
        out.delivery.value,
        source_labels(graph, output),
    )

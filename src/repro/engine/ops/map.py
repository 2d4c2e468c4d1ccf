"""Projection / mapping operators (paper §3.2 "Map").

Wake's map applies a function to *partitions* rather than rows; both
flavours here follow that contract:

* :class:`SelectOperator` — expression-based projection with derived
  columns (the common case; knows its output schema at plan time and can
  propagate CI sigma columns through differentiable expressions);
* :class:`MapPartitionsOperator` — an arbitrary frame→frame callable (the
  paper's general form, e.g. "two most ordered items within each order").

Per the Case-1 analysis (§2.2) both preserve the input's delivery: DELTA
partials map to DELTA partials, snapshots to snapshots.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import QueryError
from repro.analysis.schema_check import expr_dtype
from repro.dataframe.expr import Column, Expr
from repro.dataframe.frame import DataFrame
from repro.dataframe.schema import (
    AttributeKind,
    DType,
    Field,
    Schema,
    dtype_of,
)
from repro.core.ci import propagate_map_variance, sigma_column
from repro.core.properties import StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import Operator, surviving_key
from repro.engine.plan_node import canon_expr


class SelectOperator(Operator):
    """Project to named expressions: ``[(name, expr), ...]``.

    A derived column is MUTABLE iff its expression references any mutable
    input attribute.  When ``propagate_ci`` is set, derived columns over
    mutable inputs with ``<col>__sigma`` companions get their own sigma
    columns via the delta method (§6 "Variance Propagation").
    """

    def __init__(
        self,
        name: str,
        exprs: Sequence[tuple[str, Expr]],
        propagate_ci: bool = False,
    ) -> None:
        super().__init__(name)
        if not exprs:
            raise QueryError("select requires at least one expression")
        names = [n for n, _ in exprs]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate output names in select: {names}")
        self.exprs = list(exprs)
        self.propagate_ci = propagate_ci
        self._ci_sources: dict[str, dict[str, str]] = {}

    @staticmethod
    def _is_passthrough(expr: Expr, name: str) -> bool:
        """True for a bare ``col(name)`` projection of the same name."""
        return isinstance(expr, Column) and expr.name == name

    def _sigma_sources(self, expr: Expr, schema: Schema) -> dict[str, str]:
        """Mutable inputs of ``expr`` that carry a sigma companion."""
        return {
            c: sigma_column(c)
            for c in expr.columns() & set(schema.mutable_names)
            if sigma_column(c) in schema
        }

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        schema: Schema = info.schema
        fields: list[Field] = []
        mutable_inputs = set(schema.mutable_names)
        for out_name, expr in self.exprs:
            dtype = expr_dtype(expr, schema, self)
            is_mutable = bool(expr.columns() & mutable_inputs)
            if self._is_passthrough(expr, out_name):
                fields.append(schema.field(out_name))
            else:
                if dtype is None:
                    # Not statically typable (numpy-scalar literal,
                    # user Expr subclass): ask numpy on an empty frame.
                    values = np.asarray(
                        expr.evaluate(DataFrame.empty(schema))
                    )
                    dtype = dtype_of(values)
                elif dtype is DType.DATE:
                    # A computed column is what ``dtype_of`` will call
                    # it at run time: dates are physically int64.
                    dtype = DType.INT64
                kind = (
                    AttributeKind.MUTABLE if is_mutable
                    else AttributeKind.CONSTANT
                )
                fields.append(Field(out_name, dtype, kind))
            if self.propagate_ci and self._sigma_sources(expr, schema):
                fields.append(
                    Field(sigma_column(out_name), fields[-1].dtype,
                          AttributeKind.MUTABLE)
                )
        out_schema = self._schema(fields)
        return StreamInfo(
            schema=out_schema,
            primary_key=surviving_key(info.primary_key, out_schema),
            clustering_key=surviving_key(info.clustering_key, out_schema),
            delivery=info.delivery,
        )

    def _on_bound(self) -> None:
        if self.propagate_ci:
            schema = self.input_infos[0].schema
            sources = {
                out_name: self._sigma_sources(expr, schema)
                for out_name, expr in self.exprs
            }
            self._ci_sources = {n: s for n, s in sources.items() if s}

    def required_inputs(self, input_schemas, required):
        # A select *evaluates* every expression regardless of what is
        # consumed downstream, so its demand is exactly what the
        # expressions reference (plus, with ``propagate_ci``, their
        # sigma companions) — it never passes columns through.
        (schema,) = input_schemas
        needed: set[str] = set()
        for _out, expr in self.exprs:
            needed |= set(expr.columns())
            if self.propagate_ci:
                needed |= set(self._sigma_sources(expr, schema).values())
        return [needed]

    def reads_versions(self, port: int, wanted: bool) -> bool:
        return wanted

    def signature(self) -> tuple:
        exprs = tuple(
            (name, canon_expr(expr)) for name, expr in self.exprs
        )
        return (exprs, self.propagate_ci)

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        frame = message.frame
        data: dict[str, np.ndarray] = {}
        fields: list[Field] = []
        in_schema = frame.schema
        mutable_inputs = set(in_schema.mutable_names)
        for out_name, expr in self.exprs:
            values = np.asarray(expr.evaluate(frame))
            if values.ndim == 0:
                values = np.full(frame.n_rows, values)
            data[out_name] = values
            kind = (
                AttributeKind.MUTABLE
                if expr.columns() & mutable_inputs
                else AttributeKind.CONSTANT
            )
            if self._is_passthrough(expr, out_name):
                fields.append(in_schema.field(out_name))
            else:
                fields.append(Field(out_name, dtype_of(values), kind))
            sources = self._ci_sources.get(out_name)
            if sources:
                variances = {
                    c: frame.column(s).astype(np.float64) ** 2
                    for c, s in sources.items()
                }
                sigma = np.sqrt(
                    propagate_map_variance(frame, expr, variances)
                )
                name = sigma_column(out_name)
                data[name] = sigma
                fields.append(
                    Field(name, dtype_of(sigma), AttributeKind.MUTABLE)
                )
        out = DataFrame(data, schema=Schema(fields))
        return [message.replaced_frame(out)]


class MapPartitionsOperator(Operator):
    """Apply an arbitrary frame→frame function per message (paper's map).

    The function must be *local*: its output for a set of partitions must
    equal the union of outputs per partition (Case 1).  The output schema
    is taken from ``schema`` or probed by calling the function on an empty
    input frame.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[DataFrame], DataFrame],
        schema: Schema | None = None,
        preserves_clustering: bool = False,
    ) -> None:
        super().__init__(name)
        self.fn = fn
        self._declared_schema = schema
        self.preserves_clustering = preserves_clustering

    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        if self._declared_schema is not None:
            out_schema = self._declared_schema
        else:
            probe = self.fn(DataFrame.empty(info.schema))
            out_schema = probe.schema
        return StreamInfo(
            schema=out_schema,
            primary_key=(),
            clustering_key=(
                surviving_key(info.clustering_key, out_schema)
                if self.preserves_clustering else ()
            ),
            delivery=info.delivery,
        )

    def signature(self) -> tuple:
        # An arbitrary callable's behaviour is opaque: identity is the
        # only sound equality, so two *different* function objects never
        # compare equal (and never hash together).
        fn = self.fn
        return (getattr(fn, "__qualname__", repr(fn)), id(fn))

    def _handle_message(self, port: int, message: Message) -> list[Message]:
        return [message.replaced_frame(self.fn(message.frame))]

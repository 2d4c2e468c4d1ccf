"""The fluent edf frame API (the paper's user-facing surface, §1/§3.2).

An :class:`EdfFrame` is a *declarative plan node*: a factory for an
operator plus references to its input plans.  Nothing executes until
``WakeContext.run``; each run materializes a fresh operator graph, so the
same plan can be executed repeatedly (different options, shuffled
partition orders, partition-size sweeps) without state leakage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import QueryError
from repro.analysis.schema_check import infer_plan
from repro.dataframe.expr import Expr, col as col_
from repro.dataframe.frame import DataFrame
from repro.dataframe.schema import Schema
from repro.core.ci import CIConfig
from repro.core.properties import Delivery, StreamInfo
from repro.engine.graph import QueryGraph
from repro.engine.ops import (
    AggregateOperator,
    CrossJoinOperator,
    DistinctOperator,
    FilterOperator,
    HashJoinOperator,
    MapPartitionsOperator,
    MergeJoinOperator,
    Operator,
    ReadOperator,
    SelectOperator,
    SortLimitOperator,
)
from repro.api.functions import AggExpr
from repro.api.options import ExecutionOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.context import WakeContext

_plan_ids = itertools.count()


@dataclass(frozen=True)
class PlanNode:
    """One declarative node: builds a fresh Operator when materialized,
    from the :class:`ExecutionOptions` that execution runs under."""

    factory: Callable[[ExecutionOptions], Operator]
    inputs: tuple["PlanNode", ...] = ()
    plan_id: int = field(default_factory=lambda: next(_plan_ids))

    def materialize(
        self, graph: QueryGraph, memo: dict[int, int],
        options: ExecutionOptions,
    ) -> int:
        """Instantiate this plan (and its ancestors) into ``graph`` under
        ``options`` and label its scans.

        Scans the caller did not name are numbered per table in the
        order they were created — ``t``, ``t@2``, ``t@3``... — so two
        scans of one table keep separate progress counters (a shared
        label would let the faster one mark the source complete), and
        a plan's labels depend on the plan alone, not on what else its
        context has built."""
        output = self._instantiate(graph, memo, options)
        seen: dict[str, int] = {}
        for _plan_id, node_id in sorted(memo.items()):
            scan = graph.node(node_id).operator
            if isinstance(scan, ReadOperator) and not scan.named:
                table = scan.meta.name
                seen[table] = count = seen.get(table, 0) + 1
                if count > 1:
                    scan.source_name = f"{table}@{count}"
                    scan.name = f"read({scan.source_name})"
        return output

    def _instantiate(
        self, graph: QueryGraph, memo: dict[int, int],
        options: ExecutionOptions,
    ) -> int:
        if self.plan_id in memo:
            return memo[self.plan_id]
        input_ids = tuple(
            child._instantiate(graph, memo, options)
            for child in self.inputs
        )
        node_id = graph.add(self.factory(options), input_ids)
        memo[self.plan_id] = node_id
        return node_id


def _as_exprs(
    positional: Sequence[tuple[str, Expr]] | None,
    named: dict[str, Expr | str],
) -> list[tuple[str, Expr]]:
    out: list[tuple[str, Expr]] = list(positional or [])
    for name, expr in named.items():
        if isinstance(expr, str):
            expr = col_(expr)
        out.append((name, expr))
    if not out:
        raise QueryError("select requires at least one output column")
    return out


class EdfFrame:
    """A lazily-evaluated evolving data frame (closed under these ops)."""

    def __init__(self, context: "WakeContext", plan: PlanNode) -> None:
        self._context = context
        self._plan = plan

    # -- plumbing ----------------------------------------------------------------
    @property
    def plan(self) -> PlanNode:
        return self._plan

    @property
    def context(self) -> "WakeContext":
        return self._context

    def _wrap(self, factory: Callable[[ExecutionOptions], Operator],
              inputs: tuple[PlanNode, ...]) -> "EdfFrame":
        return EdfFrame(self._context, PlanNode(factory, inputs))

    def _name(self, op: str) -> str:
        return f"{op}#{next(_plan_ids)}"

    def stream_info(self) -> StreamInfo:
        """Plan-time stream description (schema, keys, delivery)."""
        graph = QueryGraph()
        node_id = self._plan.materialize(graph, {}, self._context.options)
        return infer_plan(graph, node_id)[node_id]

    @property
    def schema(self) -> Schema:
        return self.stream_info().schema

    # -- relational ops (paper §3.2) ------------------------------------------
    def select(self, *positional: tuple[str, Expr],
               **named: Expr | str) -> "EdfFrame":
        """Project to the given expressions.

        ``frame.select(revenue=col("price") * (1 - col("disc")))`` or
        positionally as ``frame.select(("okey", col("okey")))``.  String
        values are shorthand for column references.
        """
        exprs = _as_exprs(positional, named)
        name = self._name("select")
        ci = self._context.ci is not None
        return self._wrap(
            lambda _: SelectOperator(name, exprs, propagate_ci=ci),
            (self._plan,),
        )

    def project(self, *columns: str) -> "EdfFrame":
        """Keep only the named columns (order preserved)."""
        if not columns:
            raise QueryError("project requires at least one column")
        exprs = [(c, col_(c)) for c in columns]
        name = self._name("project")
        return self._wrap(
            lambda _: SelectOperator(name, exprs), (self._plan,)
        )

    def with_columns(self, **named: Expr) -> "EdfFrame":
        """Add (or replace) derived columns, keeping everything else."""
        if not named:
            raise QueryError("with_columns requires at least one column")
        current = self.schema.names
        exprs: list[tuple[str, Expr]] = [
            (c, named.pop(c) if c in named else col_(c)) for c in current
        ]
        exprs.extend(named.items())
        name = self._name("with_columns")
        ci = self._context.ci is not None
        return self._wrap(
            lambda _: SelectOperator(name, exprs, propagate_ci=ci),
            (self._plan,),
        )

    def filter(self, predicate: Expr) -> "EdfFrame":
        name = self._name("filter")
        return self._wrap(
            lambda _: FilterOperator(name, predicate), (self._plan,)
        )

    def map_partitions(
        self,
        fn: Callable[[DataFrame], DataFrame],
        schema: Schema | None = None,
        preserves_clustering: bool = False,
    ) -> "EdfFrame":
        """Apply an arbitrary local frame→frame function (paper's map)."""
        name = self._name("map")
        return self._wrap(
            lambda _: MapPartitionsOperator(
                name, fn, schema=schema,
                preserves_clustering=preserves_clustering,
            ),
            (self._plan,),
        )

    def join(
        self,
        other: "EdfFrame",
        on: Sequence[tuple[str, str]] | str,
        how: str = "inner",
        method: str = "auto",
        suffix: str = "_right",
    ) -> "EdfFrame":
        """Equi-join with ``other`` (the build/right side).

        ``on`` is a list of (left, right) column pairs, or one column name
        shared by both sides.  ``method`` is ``auto`` (merge join when both
        sides stream clustered on a single numeric key, else hash),
        ``hash``, or ``merge``.
        """
        if isinstance(on, str):
            pairs = [(on, on)]
        else:
            pairs = list(on)
        if not pairs:
            raise QueryError("join requires at least one key pair")
        left_on = [l for l, _ in pairs]
        right_on = [r for _, r in pairs]
        if method == "auto":
            method = self._pick_join_method(other, pairs, how)
        name = self._name(f"{method}_join")
        if method == "merge":
            if how != "inner":
                raise QueryError("merge join supports inner joins only")
            if len(pairs) != 1:
                raise QueryError("merge join requires a single key pair")
            return self._wrap(
                lambda _: MergeJoinOperator(
                    name, left_on[0], right_on[0], suffix=suffix
                ),
                (self._plan, other._plan),
            )
        if method != "hash":
            raise QueryError(f"unknown join method {method!r}")
        return self._wrap(
            lambda _: HashJoinOperator(
                name, left_on, right_on, how=how, suffix=suffix
            ),
            (self._plan, other._plan),
        )

    def _pick_join_method(
        self,
        other: "EdfFrame",
        pairs: list[tuple[str, str]],
        how: str,
    ) -> str:
        """Merge join when both sides are DELTA streams clustered on the
        (single) join key — the paper's physical-plan rule (§3.2)."""
        if how != "inner" or len(pairs) != 1:
            return "hash"
        left_info = self.stream_info()
        right_info = other.stream_info()
        left_key, right_key = pairs[0]
        if (
            left_info.delivery == Delivery.DELTA
            and right_info.delivery == Delivery.DELTA
            and left_info.clustered_on((left_key,))
            and right_info.clustered_on((right_key,))
        ):
            return "merge"
        return "hash"

    def cross_join(self, other: "EdfFrame",
                   suffix: str = "_right") -> "EdfFrame":
        """Cartesian product (for scalar/decorrelated subqueries)."""
        name = self._name("cross_join")
        return self._wrap(
            lambda _: CrossJoinOperator(name, suffix=suffix),
            (self._plan, other._plan),
        )

    def agg(self, *aggs: "AggExpr | dict", by: Sequence[str] = (),
            ci: bool | None = None,
            growth: str = "fitted") -> "EdfFrame":
        """Aggregate (optionally grouped).

        Each positional argument is an :class:`AggExpr` (the ``F``
        namespace) or a pandas-style multi-spec dict mapping column →
        aggregate name or list of names::

            frame.agg({"qty": ["sum", "mean"], "price": "max"},
                      by=["region"])

        Dict entries get the default ``<agg>_<column>`` aliases; synonym
        names (``std``, ``mean``, ``nunique``) are accepted.

        ``ci=True`` attaches §6 confidence-interval sigma columns
        (defaults to the context's CI setting).  ``growth`` selects the
        scaling strategy (§5.2 ablation): ``fitted`` (the paper's
        growth-based inference), ``uniform`` (classic 1/t OLA scaling),
        or ``none`` (raw merged values).  How median/quantile state is
        maintained comes from the options the plan runs under
        (``ExecutionOptions.quantile_mode`` / ``sketch_size``).
        """
        exprs: list[AggExpr] = []
        for item in aggs:
            if isinstance(item, dict):
                for column, fns in item.items():
                    names = [fns] if isinstance(fns, str) else list(fns)
                    if not names:
                        raise QueryError(
                            f"agg dict entry {column!r} names no "
                            f"aggregates"
                        )
                    exprs.extend(AggExpr(fn, column) for fn in names)
            else:
                exprs.append(item)
        if not exprs:
            raise QueryError("agg requires at least one aggregate")
        specs = [a.to_spec() for a in exprs]
        name = self._name("agg")
        if ci is None:
            config = self._context.ci
        elif ci:
            config = self._context.ci or CIConfig()
        else:
            config = None
        by = tuple(by)
        return self._wrap(
            lambda options: AggregateOperator(
                name, specs, by=by, ci=config, growth_mode=growth,
                quantile_mode=options.quantile_mode,
                sketch_size=options.sketch_size,
            ),
            (self._plan,),
        )

    # sugar mirroring the paper's example (lineitem.sum(qty, by=orderkey))
    def sum(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("sum", column, alias or f"sum_{column}")
        return self.agg(spec, by=by)

    def count(self, by: Sequence[str] = (),
              alias: str = "count") -> "EdfFrame":
        return self.agg(AggExpr("count", None, alias), by=by)

    def avg(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("avg", column, alias or f"avg_{column}")
        return self.agg(spec, by=by)

    def min(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        return self.agg(AggExpr("min", column, alias or f"min_{column}"),
                        by=by)

    def max(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        return self.agg(AggExpr("max", column, alias or f"max_{column}"),
                        by=by)

    def count_distinct(self, column: str, by: Sequence[str] = (),
                       alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("count_distinct", column,
                       alias or f"distinct_{column}")
        return self.agg(spec, by=by)

    def var(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        return self.agg(AggExpr("var", column, alias or f"var_{column}"),
                        by=by)

    def stddev(self, column: str, by: Sequence[str] = (),
               alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("stddev", column, alias or f"stddev_{column}")
        return self.agg(spec, by=by)

    def sem(self, column: str, by: Sequence[str] = (),
            alias: str | None = None) -> "EdfFrame":
        return self.agg(AggExpr("sem", column, alias or f"sem_{column}"),
                        by=by)

    def prod(self, column: str, by: Sequence[str] = (),
             alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("prod", column, alias or f"prod_{column}")
        return self.agg(spec, by=by)

    def first(self, column: str, by: Sequence[str] = (),
              alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("first", column, alias or f"first_{column}")
        return self.agg(spec, by=by)

    def last(self, column: str, by: Sequence[str] = (),
             alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("last", column, alias or f"last_{column}")
        return self.agg(spec, by=by)

    def median(self, column: str, by: Sequence[str] = (),
               alias: str | None = None) -> "EdfFrame":
        spec = AggExpr("median", column, alias or f"median_{column}")
        return self.agg(spec, by=by)

    def quantile(self, column: str, q: float, by: Sequence[str] = (),
                 alias: str | None = None) -> "EdfFrame":
        # Lossless default alias: rounding q to a percentile would
        # collide e.g. quantile(x, 0.995) with quantile(x, 1.0).
        spec = AggExpr("quantile", column,
                       alias or f"q{q:g}_{column}", param=q)
        return self.agg(spec, by=by)

    def sort(self, by: Sequence[str] | str,
             desc: bool | Sequence[bool] = False) -> "EdfFrame":
        keys = [by] if isinstance(by, str) else list(by)
        if isinstance(desc, bool):
            ascending: Sequence[bool] | bool = not desc
        else:
            ascending = [not d for d in desc]
        name = self._name("sort")
        return self._wrap(
            lambda _: SortLimitOperator(name, by=keys, ascending=ascending),
            (self._plan,),
        )

    def limit(self, n: int) -> "EdfFrame":
        name = self._name("limit")
        return self._wrap(
            lambda _: SortLimitOperator(name, limit=n), (self._plan,)
        )

    def top_k(self, by: Sequence[str] | str, k: int,
              desc: bool | Sequence[bool] = True) -> "EdfFrame":
        """Sort + limit in one node (avoids two Case-3 recomputes)."""
        keys = [by] if isinstance(by, str) else list(by)
        if isinstance(desc, bool):
            ascending: Sequence[bool] | bool = not desc
        else:
            ascending = [not d for d in desc]
        name = self._name("top_k")
        return self._wrap(
            lambda _: SortLimitOperator(name, by=keys, ascending=ascending,
                                        limit=k),
            (self._plan,),
        )

    def distinct(self, *subset: str) -> "EdfFrame":
        name = self._name("distinct")
        cols = tuple(subset)
        return self._wrap(
            lambda _: DistinctOperator(name, subset=cols), (self._plan,)
        )

    # -- execution sugar -----------------------------------------------------------
    def run(self, **kwargs):
        """Execute via the owning context (see ``WakeContext.run``)."""
        return self._context.run(self, **kwargs)

    def final(self, **kwargs) -> DataFrame:
        """Convenience: run to completion, return the exact answer.

        Keyword arguments (e.g. ``options=``) are forwarded to
        :meth:`WakeContext.run`.
        """
        return self._context.run(
            self, capture_all=False, **kwargs
        ).get_final()

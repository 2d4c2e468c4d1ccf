"""The operator contract: one class is the whole description.

Validation, ``explain``, projection pushdown and plan hashing read
three overridable methods on the operator class (``_derive_info``,
``required_inputs``, ``signature``) and nothing else, so an operator
defined here — outside ``src/`` — takes part in all of them, and one that defines only ``_derive_info`` gets the
conservative defaults.
"""

import numpy as np
import pytest

from repro import F, WakeContext, col
from repro.api.frame_api import EdfFrame, PlanNode
from repro.core.properties import Delivery, StreamInfo
from repro.dataframe import DataFrame
from repro.dataframe.schema import AttributeKind, DType, Field, Schema
from repro.engine import ops
from repro.engine.graph import QueryGraph
from repro.engine.ops.base import Operator, SourceOperator
from repro.engine.optimizer import optimize
from repro.engine.plan_node import plan_hash
from repro.errors import PlanValidationError
from repro.storage.catalog import TableMeta


# ---------------------------------------------------------------------------
# (a) a toy operator: nothing outside this class knows it exists
# ---------------------------------------------------------------------------

class ClampOperator(Operator):
    """Clip one numeric column into ``[lo, hi]``; everything else passes
    through."""

    def __init__(self, name, column, lo, hi):
        super().__init__(name)
        self.column, self.lo, self.hi = column, lo, hi

    def _derive_info(self, inputs):
        (info,) = inputs
        if self.column not in info.schema:
            raise self.fail(
                "undefined-column", f"unknown column {self.column!r}",
                column=self.column,
            )
        if info.schema.dtype(self.column) is DType.STRING:
            raise self.fail(
                "type-mismatch", f"cannot clamp string {self.column!r}",
                column=self.column,
            )
        return info

    def required_inputs(self, input_schemas, required):
        return [None if required is None else required | {self.column}]

    def signature(self):
        return (self.column, self.lo, self.hi)

    def _handle_message(self, port, message):
        frame = message.frame
        data = {n: frame.column(n) for n in frame.column_names}
        data[self.column] = np.clip(data[self.column], self.lo, self.hi)
        return [message.replaced_frame(
            DataFrame(data, schema=frame.schema)
        )]


class BareClampOperator(ClampOperator):
    """The same operator with only ``_derive_info``: every other
    contract method is the base class default."""

    required_inputs = Operator.required_inputs
    signature = Operator.signature


def _clamp(frame, column="qty", cls=ClampOperator):
    return EdfFrame(
        frame.context,
        PlanNode(lambda: cls("clamp", column, 5.0, 40.0), (frame.plan,)),
    )


def _graph(frame):
    graph = QueryGraph()
    return graph, frame.plan.materialize(graph, {})


def _scan(graph):
    (read_id,) = graph.source_ids()
    return graph.node(read_id).operator


@pytest.fixture
def ctx(catalog):
    return WakeContext(catalog)


@pytest.fixture
def no_reads(monkeypatch):
    def _boom(self, *args, **kwargs):
        raise AssertionError("partition read before plan validation")

    monkeypatch.setattr(TableMeta, "read_partition", _boom)


class TestToyOperator:
    def test_runs_end_to_end(self, ctx):
        final = ctx.run(
            _clamp(ctx.table("sales")).agg(F.max("qty").alias("m"))
        ).get_final()
        assert final.column("m").tolist() == [40.0]

    def test_coded_errors_at_submit(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            ctx.executor_for(_clamp(ctx.table("sales"), "nope"))
        assert info.value.code == "undefined-column"
        assert info.value.column == "nope"
        assert info.value.node == 1
        assert info.value.operator == "clamp"
        with pytest.raises(PlanValidationError) as info:
            ctx.executor_for(_clamp(ctx.table("sales"), "cust"))
        assert info.value.code == "type-mismatch"

    def test_explain_types_renders_it(self, ctx):
        text = ctx.explain(_clamp(ctx.table("sales")), mode="types")
        assert "clamp delivery=delta" in text

    def test_projection_pushes_through_it(self, ctx):
        plan = _clamp(ctx.table("sales")).agg(
            F.sum("qty").alias("s"), by=["region"]
        )
        graph, output = _graph(plan)
        optimize(graph, output)
        assert _scan(graph).columns == ("qty", "region")

    def test_default_demand_blocks_pushdown_below_it(self, ctx):
        plan = _clamp(ctx.table("sales"), cls=BareClampOperator).agg(
            F.sum("qty").alias("s"), by=["region"]
        )
        graph, output = _graph(plan)
        optimize(graph, output)
        assert _scan(graph).columns is None

    def test_plan_hash_is_stable_and_alpha_equal(self, ctx):
        def plan():
            return _clamp(ctx.table("sales")).filter(col("qty") > 6.0)

        a, b = _graph(plan()), _graph(plan())
        assert plan_hash(*a) == plan_hash(*b)
        other = _graph(_clamp(ctx.table("sales"), "okey"))
        assert plan_hash(*a) != plan_hash(*other)

    def test_default_signature_never_collides(self, ctx):
        def plan():
            return _clamp(ctx.table("sales"), cls=BareClampOperator)

        a, b = _graph(plan()), _graph(plan())
        assert plan_hash(*a) != plan_hash(*b)


# ---------------------------------------------------------------------------
# (b) derivation is pure, for every operator class
# ---------------------------------------------------------------------------

_SCHEMA = Schema([
    Field("k", DType.INT64),
    Field("v", DType.FLOAT64),
    Field("s", DType.STRING),
    Field("m", DType.FLOAT64, AttributeKind.MUTABLE),
])
_DELTA = StreamInfo(schema=_SCHEMA, primary_key=("k",),
                    clustering_key=("k",), delivery=Delivery.DELTA)
_REPLACE = StreamInfo(schema=_SCHEMA, delivery=Delivery.REPLACE)
_RIGHT = StreamInfo(
    schema=Schema([Field("k", DType.INT64), Field("w", DType.FLOAT64)]),
    clustering_key=("k",), delivery=Delivery.DELTA,
)


def _cases(catalog):
    """One (operator, input infos) case per exported operator class."""
    agg = [F.sum("v").alias("t").to_spec()]
    return {
        ops.ReadOperator: (
            ops.ReadOperator(catalog.table("sales")), ()),
        ops.FilterOperator: (
            ops.FilterOperator("f", col("m") > 1.0), (_DELTA,)),
        ops.SelectOperator: (
            ops.SelectOperator(
                "s", [("k", col("k")), ("x", col("v") * col("m"))],
                propagate_ci=True,
            ), (_DELTA,)),
        ops.MapPartitionsOperator: (
            ops.MapPartitionsOperator("mp", lambda frame: frame),
            (_DELTA,)),
        ops.AggregateOperator: (
            ops.AggregateOperator("a", agg, by=("s",)), (_DELTA,)),
        ops.HashJoinOperator: (
            ops.HashJoinOperator("hj", ["k"], ["k"], how="left"),
            (_DELTA, _RIGHT)),
        ops.MergeJoinOperator: (
            ops.MergeJoinOperator("mj", "k", "k"), (_DELTA, _RIGHT)),
        ops.CrossJoinOperator: (
            ops.CrossJoinOperator("cj"), (_DELTA, _REPLACE)),
        ops.SortLimitOperator: (
            ops.SortLimitOperator("so", by=["v"], limit=3), (_DELTA,)),
        ops.DistinctOperator: (
            ops.DistinctOperator("d", ["s"]), (_DELTA,)),
    }


_OPERATOR_CLASSES = sorted(
    (
        cls for cls in vars(ops).values()
        if isinstance(cls, type) and issubclass(cls, Operator)
        and cls not in (Operator, SourceOperator)
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize(
    "cls", _OPERATOR_CLASSES, ids=lambda cls: cls.__name__
)
def test_derive_info_is_pure(cls, catalog):
    op, inputs = _cases(catalog)[cls]
    before = dict(vars(op))
    first = op.derive(inputs)
    second = op.derive(inputs)
    assert first == second
    assert vars(op) == before
    with pytest.raises(Exception, match="not bound"):
        op.output_info


def test_explain_types_never_binds(ctx, monkeypatch):
    def _bound(self, input_infos):
        raise AssertionError(f"{self.name} was bound")

    monkeypatch.setattr(Operator, "bind", _bound)
    sales = ctx.table("sales")
    plan = (
        sales.filter(col("qty") > 10.0)
        .join(ctx.table("customers"), on=[("cust", "ckey")])
        .agg(F.sum("qty").alias("s"), by=["segment"])
        .sort("s", desc=True).limit(2)
    )
    text = ctx.explain(plan, mode="types")
    assert "s: float64*" in text
    assert "segment: string" in text


# ---------------------------------------------------------------------------
# (c) the SNIPPETS.md snippet-2 one-liner
# ---------------------------------------------------------------------------

def test_count_over_wide_select_reads_one_column(ctx):
    wide = ctx.table("sales").select(
        x=col("qty"), y=col("okey") * 2, z=col("region"),
        w=col("cust"),
    )
    graph, output = _graph(wide.agg(F.count("x").alias("n")))
    optimize(graph, output)
    assert _scan(graph).columns == ("qty",)

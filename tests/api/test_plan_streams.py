"""A plan node derives its stream once, when it is built.

Each fluent-API call builds a :class:`PlanNode` that derives its output
stream from its inputs' already-derived streams and keeps it, so
``stream_info()`` / ``.schema`` read it, ``join(method="auto")`` picks
from it, and a submit collects the stored streams instead of deriving
the plan again.  What a node streams depends on the builder's
arguments, the scanned tables' metadata and the context's ``ci`` only:
neither the execution options nor materialize's scan labels enter it.
"""

import numpy as np
import pytest

from repro import ExecutionOptions, F, WakeContext, col
from repro.analysis.schema_check import infer_plan
from repro.api.functions import AggExpr
from repro.dataframe import DataFrame
from repro.dataframe.groupby import AGG_FUNCTIONS
from repro.engine.graph import QueryGraph
from repro.engine.ops import HashJoinOperator, ReadOperator
from repro.engine.ops.base import Operator
from repro.errors import PlanValidationError
from repro.storage import write_table
from repro.storage.catalog import TableMeta
from repro.tpch.queries import QUERIES


@pytest.fixture
def derive_calls(monkeypatch):
    calls = []
    derive = Operator.derive

    def counted(self, inputs):
        calls.append(self.name)
        return derive(self, inputs)

    monkeypatch.setattr(Operator, "derive", counted)
    return calls


def _join_chain(ctx, k):
    """``sales`` joined ``k`` times with a renamed ``customers`` key:
    3k + 1 plan nodes."""
    frame = ctx.table("sales")
    for i in range(k):
        right = ctx.table("customers").select(**{f"c{i}": col("ckey")})
        frame = frame.join(right, on=[("cust", f"c{i}")])
    return frame


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_join_chain_derives_once_per_node(catalog, derive_calls, k):
    ctx = WakeContext(catalog)
    frame = _join_chain(ctx, k)
    assert len(derive_calls) == 3 * k + 1
    assert frame.stream_info() is frame.plan.stream
    assert frame.schema.names == ("okey", "qty", "cust", "region")
    assert len(derive_calls) == 3 * k + 1


def _stored_streams(frame, options):
    graph = QueryGraph()
    streams = {}
    output = frame.plan.materialize(graph, {}, options, streams)
    return graph, output, streams


def _every_aggregate(column):
    return [AggExpr(name, column, param=0.9 if name == "quantile" else None)
            for name in AGG_FUNCTIONS]


@pytest.mark.parametrize("options", [
    ExecutionOptions(),
    ExecutionOptions(quantile_mode="sketch", sketch_size=64),
], ids=["default", "sketch64"])
def test_stored_streams_equal_a_fresh_derivation(tpch, options):
    """Node for node, the streams the plan nodes derived at build equal
    what the materialized operators derive under ``options``, labels
    ``t@2`` included."""
    catalog, _tables = tpch
    ctx = WakeContext(catalog)
    plans = {f"q{n:02d}": QUERIES[n].build_plan(ctx) for n in QUERIES}
    assert {"median", "quantile"} <= set(AGG_FUNCTIONS)
    plans["aggs/grouped"] = ctx.table("lineitem").agg(
        *_every_aggregate("l_quantity"), by=["l_suppkey"], ci=True)
    plans["aggs/level2"] = ctx.table("lineitem").agg(
        F.sum("l_quantity").alias("qty"), by=["l_suppkey", "l_linestatus"],
    ).agg(*_every_aggregate("qty"), by=["l_linestatus"])
    plans["self_join"] = ctx.table("lineitem").join(
        ctx.table("lineitem").filter(col("l_quantity") > 40.0)
        .select(k=col("l_orderkey")),
        on=[("l_orderkey", "k")], how="semi",
    )
    relabeled = 0
    for name, frame in plans.items():
        graph, output, streams = _stored_streams(frame, options)
        assert infer_plan(graph, output) == streams, name
        relabeled += sum(
            "@" in node.operator.source_name
            for node in graph.nodes.values()
            if isinstance(node.operator, ReadOperator)
        )
    assert relabeled


def test_error_names_the_node_id_it_gets(catalog, monkeypatch):
    """A malformed node fails in the call that built it, before any
    read, pinned to the id it gets when its own frame is materialized:
    the number of distinct plan nodes beneath it."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("partition read before plan validation")

    monkeypatch.setattr(TableMeta, "read_partition", _boom)
    ctx = WakeContext(catalog)
    sales = ctx.table("sales")
    joined = sales.filter(col("qty") > 1.0).join(
        sales.select(k=col("okey")), on=[("okey", "k")]
    )
    with pytest.raises(PlanValidationError) as info:
        joined.filter(col("nope") > 1)
    assert info.value.code == "undefined-column"
    assert info.value.column == "nope"
    graph, output, _streams = _stored_streams(
        joined.filter(col("qty") > 2.0), ctx.options
    )
    assert info.value.node == output == 4
    assert str(info.value).startswith("node 4: filter#")


@pytest.fixture
def string_clustered(catalog, tmp_path):
    """Two tables clustered on a single string key (``k`` / ``rk``)."""
    keys = np.array(["a", "a", "b", "b", "c", "c"])
    write_table(catalog, tmp_path / "left", "left",
                DataFrame({"k": keys, "v": np.arange(6.0)}),
                rows_per_partition=2, primary_key=(),
                clustering_key=["k"])
    write_table(catalog, tmp_path / "right", "right",
                DataFrame({"rk": keys, "w": np.arange(6.0)}),
                rows_per_partition=3, primary_key=(),
                clustering_key=["rk"])
    return WakeContext(catalog)


def test_auto_join_never_picks_a_merge_it_cannot_run(string_clustered):
    ctx = string_clustered
    joined = ctx.table("left").join(ctx.table("right"), on=[("k", "rk")])
    hashed = ctx.table("left").join(ctx.table("right"), on=[("k", "rk")],
                                    method="hash")
    assert joined.final().n_rows == hashed.final().n_rows == 12
    graph = QueryGraph()
    output = joined.plan.materialize(graph, {}, ctx.options)
    assert isinstance(graph.node(output).operator, HashJoinOperator)

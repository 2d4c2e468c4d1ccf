"""Plan-level classification tests: the §2.2 case analysis applied to the
TPC-H plans must match the paper's Fig-8 query categories."""

import pytest

from repro.core.properties import Delivery
from repro.engine.graph import QueryGraph
from repro.engine.ops import AggregateOperator, MergeJoinOperator
from repro.tpch.queries import QUERIES


def materialize(tpch_ctx, number, **overrides):
    plan = QUERIES[number].build_plan(tpch_ctx, **overrides)
    graph = QueryGraph()
    output = plan.plan.materialize(graph, {}, plan.context.options)
    graph.resolve()
    return graph, output


def aggregates(graph):
    return [
        node.operator
        for node in graph.nodes.values()
        if isinstance(node.operator, AggregateOperator)
    ]


class TestCategoryRecall:
    """'recall' queries aggregate on (supersets of) the clustering key:
    their final aggregation must plan as Case-1 local mode."""

    def test_q18_aggregations_are_local(self, tpch_ctx):
        graph, _ = materialize(tpch_ctx, 18, threshold=150)
        aggs = aggregates(graph)
        assert aggs, "q18 must contain aggregations"
        assert all(op.local_mode for op in aggs), (
            "both q18 aggregations group on the order key and must "
            "stream exact DELTA output (Fig 6)"
        )

    def test_q03_final_agg_is_local(self, tpch_ctx):
        graph, output = materialize(tpch_ctx, 3)
        aggs = aggregates(graph)
        assert any(op.local_mode for op in aggs)

    def test_q18_uses_merge_join(self, tpch_ctx):
        graph, _ = materialize(tpch_ctx, 18, threshold=150)
        assert any(
            isinstance(node.operator, MergeJoinOperator)
            for node in graph.nodes.values()
        ), "q18's orders join must pick the progressive merge join"


class TestCategoryMape:
    """'mape' queries shuffle: their aggregations emit REPLACE
    estimates with mutable attributes."""

    @pytest.mark.parametrize("number", [1, 6, 14])
    def test_shuffle_aggregation(self, tpch_ctx, number):
        graph, output = materialize(tpch_ctx, number)
        aggs = aggregates(graph)
        assert aggs
        assert any(not op.local_mode for op in aggs)
        shuffles = [op for op in aggs if not op.local_mode]
        for op in shuffles:
            assert op.output_info.delivery == Delivery.REPLACE
            mutable = op.output_info.schema.mutable_names
            assert mutable, "shuffle aggregates emit mutable attrs"


class TestDeliveryAtOutput:
    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_sorted_outputs_are_replace(self, tpch_ctx, number):
        """Every query ends in an ORDER BY (Case 3): the output stream
        must be REPLACE snapshots."""
        overrides = {11: {"fraction": 0.005},
                     18: {"threshold": 150}}.get(number, {})
        graph, output = materialize(tpch_ctx, number, **overrides)
        info = graph.resolve()[output]
        assert info.delivery == Delivery.REPLACE

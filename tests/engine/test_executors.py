"""Executor tests: deep pipeline end-to-end, snapshot metadata,
convergence behaviour."""

import numpy as np
import pytest

from repro.dataframe import (
    AggSpec,
    col,
    group_aggregate,
    hash_join,
    top_k,
)
from repro.engine import QueryGraph, StepExecutor
from repro.engine.ops import (
    AggregateOperator,
    FilterOperator,
    HashJoinOperator,
    ReadOperator,
    SortLimitOperator,
)


def section1_pipeline(catalog):
    """The paper's §1 session on the test tables: per-order totals,
    filter large orders, join customer names, total per customer,
    top customers."""
    graph = QueryGraph()
    sales = graph.add(ReadOperator(catalog.table("sales")))
    per_order = graph.add(
        AggregateOperator(
            "order_qty",
            [AggSpec("sum", "qty", "sum_qty"),
             AggSpec("count", None, "items")],
            by=["okey", "cust"],
        ),
        (sales,),
    )
    large = graph.add(
        FilterOperator("lg_orders", col("sum_qty") > 40), (per_order,)
    )
    cust = graph.add(ReadOperator(catalog.table("customers")))
    named = graph.add(
        HashJoinOperator("join_cust", ["cust"], ["ckey"]), (large, cust)
    )
    per_cust = graph.add(
        AggregateOperator(
            "qty_per_cust",
            [AggSpec("sum", "sum_qty", "total_qty")],
            by=["name"],
        ),
        (named,),
    )
    top = graph.add(
        SortLimitOperator(
            "top_cust", by=["total_qty", "name"],
            ascending=[False, True], limit=3,
        ),
        (per_cust,),
    )
    return graph, top


def section1_reference(catalog):
    full = catalog.table("sales").read_all()
    customers = catalog.table("customers").read_all()
    per_order = group_aggregate(
        full, ["okey", "cust"],
        [AggSpec("sum", "qty", "sum_qty"), AggSpec("count", None, "items")],
    )
    large = per_order.mask(per_order.column("sum_qty") > 40)
    named = hash_join(large, customers, ["cust"], ["ckey"])
    per_cust = group_aggregate(
        named, ["name"], [AggSpec("sum", "sum_qty", "total_qty")]
    )
    return top_k(per_cust, ["total_qty", "name"], 3,
                 ascending=[False, True])


class TestDeepPipeline:
    def test_final_answer_matches_reference(self, catalog):
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top).run()
        expected = section1_reference(catalog)
        got = edf.get_final()
        assert got.column("name").tolist() == expected.column(
            "name").tolist()
        np.testing.assert_allclose(
            got.column("total_qty"), expected.column("total_qty")
        )

    def test_intermediate_estimates_appear_early(self, catalog):
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top).run()
        assert len(edf) >= 3  # one refresh per fact partition at least
        assert edf.snapshots[0].t < 0.5

    def test_estimates_converge(self, catalog):
        """Later estimates should not be (much) worse: compare first and
        second-half mean error on the top-customer total."""
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top).run()
        expected = section1_reference(catalog)
        target = expected.column("total_qty")[0]

        def error(snapshot):
            if snapshot.frame.n_rows == 0:
                return 1.0
            return abs(snapshot.frame.column("total_qty")[0] - target) / \
                target

        errors = [error(s) for s in edf.snapshots]
        assert errors[-1] == pytest.approx(0.0, abs=1e-9)


class TestSnapshotMetadata:
    def test_wall_times_monotone(self, catalog):
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top).run()
        times = [s.wall_time for s in edf.snapshots]
        assert times == sorted(times)

    def test_rows_processed_monotone(self, catalog):
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top).run()
        rows = [s.rows_processed for s in edf.snapshots]
        assert rows == sorted(rows)
        assert rows[-1] == 60 + 5  # all sales + all customers

    def test_capture_all_false_keeps_first_and_final(self, catalog):
        graph, top = section1_pipeline(catalog)
        edf = StepExecutor(graph, top, capture_all=False).run()
        assert len(edf) == 2
        assert edf.snapshots[0].sequence == 0
        assert edf.is_final


class TestEmptyResults:
    def test_fully_filtered_query_yields_empty_final(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        filt = graph.add(
            FilterOperator("f", col("qty") > 1e9), (read,)
        )
        agg = graph.add(
            AggregateOperator("a", [AggSpec("sum", "qty", "s")],
                              by=["cust"]),
            (filt,),
        )
        edf = StepExecutor(graph, agg).run()
        assert edf.is_final
        assert edf.get_final().n_rows == 0

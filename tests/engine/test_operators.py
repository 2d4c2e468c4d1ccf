"""Unit tests for individual operators through small graphs."""

import numpy as np
import pytest

from repro.dataframe import AggSpec, col, group_aggregate
from repro.dataframe.join import hash_join
from repro.core.properties import Delivery
from repro.engine import QueryGraph, StepExecutor
from repro.engine.ops import (
    AggregateOperator,
    CrossJoinOperator,
    DistinctOperator,
    FilterOperator,
    HashJoinOperator,
    MapPartitionsOperator,
    MergeJoinOperator,
    ReadOperator,
    SelectOperator,
    SortLimitOperator,
)
from repro.errors import QueryError


def run(graph, output, **kwargs):
    return StepExecutor(graph, output, **kwargs).run()


class TestReadOperator:
    def test_streams_one_message_per_partition(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        edf = run(graph, read)
        assert len(edf) == 6  # 6 partitions
        assert edf.snapshots[0].t == pytest.approx(1 / 6)
        assert edf.snapshots[-1].t == 1.0
        assert edf.is_final

    def test_accumulates_delta(self, catalog, sales_frame):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        edf = run(graph, read)
        assert edf.get_final().equals(sales_frame)
        assert edf.snapshots[0].frame.n_rows == 10

    def test_shuffled_order(self, catalog, sales_frame):
        graph = QueryGraph()
        read = graph.add(
            ReadOperator(catalog.table("sales"), order=[5, 4, 3, 2, 1, 0])
        )
        edf = run(graph, read)
        got = edf.get_final()
        assert got.n_rows == 60
        assert sorted(got.column("okey").tolist()) == sorted(
            sales_frame.column("okey").tolist()
        )

    def test_stream_info(self, catalog):
        op = ReadOperator(catalog.table("sales"))
        info = op.bind(())
        assert info.delivery == Delivery.DELTA
        assert info.clustering_key == ("okey",)


class TestFilterOperator:
    def test_constant_filter_stays_delta(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        filt = graph.add(
            FilterOperator("f", col("region") == "east"), (read,)
        )
        infos = graph.resolve()
        assert infos[filt].delivery == Delivery.DELTA
        edf = run(graph, filt)
        final = edf.get_final()
        assert (final.column("region") == "east").all()
        assert final.n_rows == 30

    def test_unknown_column_rejected(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        graph.add(FilterOperator("f", col("nope") > 1), (read,))
        with pytest.raises(QueryError, match="unknown column"):
            graph.resolve()

    def test_filter_on_mutable_snapshot_input(self, catalog):
        # shuffle agg output (REPLACE, mutable) -> filter recomputes
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a", [AggSpec("sum", "qty", "s")], by=["cust"]
            ),
            (read,),
        )
        filt = graph.add(FilterOperator("f", col("s") > 0), (agg,))
        infos = graph.resolve()
        assert infos[filt].delivery == Delivery.REPLACE
        edf = run(graph, filt)
        assert edf.is_final


class TestSelectOperator:
    def test_projection_and_derivation(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        sel = graph.add(
            SelectOperator(
                "s",
                [("okey", col("okey")), ("double_qty", col("qty") * 2)],
            ),
            (read,),
        )
        edf = run(graph, sel)
        final = edf.get_final()
        assert final.column_names == ("okey", "double_qty")
        assert final.column("double_qty")[0] == pytest.approx(
            2 * catalog.table("sales").read_all().column("qty")[0]
        )

    def test_clustering_preserved_iff_projected(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        keep = graph.add(
            SelectOperator("k", [("okey", col("okey"))]), (read,)
        )
        drop = graph.add(
            SelectOperator("d", [("qty", col("qty"))]), (read,)
        )
        infos = graph.resolve()
        assert infos[keep].clustering_key == ("okey",)
        assert infos[drop].clustering_key == ()

    def test_duplicate_names_rejected(self):
        with pytest.raises(QueryError, match="duplicate"):
            SelectOperator("s", [("a", col("x")), ("a", col("y"))])

    def test_mutable_propagation(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a", [AggSpec("sum", "qty", "s")], by=["cust"]
            ),
            (read,),
        )
        sel = graph.add(
            SelectOperator("m", [("cust", col("cust")),
                                 ("s2", col("s") * 2)]),
            (agg,),
        )
        infos = graph.resolve()
        assert infos[sel].schema.kind("s2").value == "mutable"
        assert infos[sel].schema.kind("cust").value == "constant"


class TestMapPartitions:
    def test_custom_function(self, catalog):
        def square_qty(frame):
            return frame.with_column("qty", frame.column("qty") ** 2)

        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        mp = graph.add(MapPartitionsOperator("sq", square_qty), (read,))
        edf = run(graph, mp)
        expected = catalog.table("sales").read_all().column("qty") ** 2
        np.testing.assert_allclose(
            edf.get_final().column("qty"), expected
        )


class TestAggregateOperator:
    def test_local_mode_on_clustering_key(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a", [AggSpec("sum", "qty", "sum_qty")], by=["okey"]
            ),
            (read,),
        )
        infos = graph.resolve()
        op = graph.node(agg).operator
        assert op.local_mode
        assert infos[agg].delivery == Delivery.DELTA
        assert infos[agg].schema.kind("sum_qty").value == "constant"
        edf = run(graph, agg)
        expected = group_aggregate(
            catalog.table("sales").read_all(), ["okey"],
            [AggSpec("sum", "qty", "sum_qty")],
        )
        got = edf.get_final()
        got_map = dict(zip(got.column("okey").tolist(),
                           got.column("sum_qty").tolist()))
        exp_map = dict(zip(expected.column("okey").tolist(),
                           expected.column("sum_qty").tolist()))
        assert got_map == pytest.approx(exp_map)

    def test_local_mode_values_never_change(self, catalog):
        """Local-mode rows are exact on first emission (recall grows,
        values constant — §8.3 category 2)."""
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a", [AggSpec("sum", "qty", "s")], by=["okey"]
            ),
            (read,),
        )
        edf = run(graph, agg)
        final = dict(zip(edf.get_final().column("okey").tolist(),
                         edf.get_final().column("s").tolist()))
        seen: dict[int, float] = {}
        running = 0
        for snap in edf.snapshots:
            assert snap.frame.n_rows >= running  # recall monotone
            running = snap.frame.n_rows
            for k, v in zip(snap.frame.column("okey").tolist(),
                            snap.frame.column("s").tolist()):
                assert final[k] == pytest.approx(v)
                seen[k] = v
        assert len(seen) == 30

    def test_shuffle_mode_converges_to_exact(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a",
                [AggSpec("sum", "qty", "s"), AggSpec("count", None, "n")],
                by=["cust"],
            ),
            (read,),
        )
        infos = graph.resolve()
        assert infos[agg].delivery == Delivery.REPLACE
        edf = run(graph, agg)
        expected = group_aggregate(
            catalog.table("sales").read_all(), ["cust"],
            [AggSpec("sum", "qty", "s"), AggSpec("count", None, "n")],
        )
        got = edf.get_final()
        got_map = dict(zip(got.column("cust").tolist(),
                           got.column("s").tolist()))
        exp_map = dict(zip(expected.column("cust").tolist(),
                           expected.column("s").tolist()))
        assert got_map == pytest.approx(exp_map)

    def test_shuffle_estimates_are_scaled(self, catalog):
        """First estimate should be in the ballpark of the final answer,
        not the raw partial sum (which would be ~6x smaller)."""
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg = graph.add(
            AggregateOperator(
                "a", [AggSpec("sum", "qty", "s")], by=[]
            ),
            (read,),
        )
        edf = run(graph, agg)
        total = catalog.table("sales").read_all().column("qty").sum()
        first = edf.snapshots[0].frame.column("s")[0]
        assert first == pytest.approx(total, rel=0.5)
        assert edf.get_final().column("s")[0] == pytest.approx(total)

    def test_group_by_mutable_rejected(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        agg1 = graph.add(
            AggregateOperator("a", [AggSpec("sum", "qty", "s")],
                              by=["cust"]),
            (read,),
        )
        graph.add(
            AggregateOperator("b", [AggSpec("sum", "s", "ss")], by=["s"]),
            (agg1,),
        )
        with pytest.raises(QueryError, match="mutable"):
            graph.resolve()

    def test_aggregate_over_aggregate(self, catalog):
        """Deep OLA: sum-per-okey (local) then sum-per-cust (shuffle)."""
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        per_order = graph.add(
            AggregateOperator(
                "per_order",
                [AggSpec("sum", "qty", "order_qty")],
                by=["okey"],
            ),
            (read,),
        )
        sel = graph.add(
            SelectOperator(
                "keep",
                [("okey", col("okey")), ("order_qty", col("order_qty"))],
            ),
            (per_order,),
        )
        del sel
        graph2_input = per_order
        per_cust = graph.add(
            AggregateOperator(
                "per_cust",
                [AggSpec("max", "order_qty", "biggest")],
                by=[],
            ),
            (graph2_input,),
        )
        edf = run(graph, per_cust)
        full = catalog.table("sales").read_all()
        per_order_exact = group_aggregate(
            full, ["okey"], [AggSpec("sum", "qty", "order_qty")]
        )
        expected = per_order_exact.column("order_qty").max()
        assert edf.get_final().column("biggest")[0] == pytest.approx(
            expected
        )


class TestHashJoinOperator:
    def test_inner_join_final(self, catalog, sales_frame, customers_frame):
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        join = graph.add(
            HashJoinOperator("j", ["cust"], ["ckey"]), (sales, cust)
        )
        infos = graph.resolve()
        assert infos[join].delivery == Delivery.DELTA
        edf = run(graph, join)
        expected = hash_join(sales_frame, customers_frame, ["cust"],
                             ["ckey"])
        got = edf.get_final()
        assert got.n_rows == expected.n_rows
        assert sorted(got.column("name").tolist()) == sorted(
            expected.column("name").tolist()
        )

    def test_build_side_drained_first(self, catalog):
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        graph.add(HashJoinOperator("j", ["cust"], ["ckey"]),
                  (sales, cust))
        priorities = graph.source_priorities()
        assert priorities[cust] == 0
        assert priorities[sales] == 1

    def test_semi_and_anti(self, catalog, sales_frame, customers_frame):
        for how, expected_rows in (("semi", 60), ("anti", 0)):
            graph = QueryGraph()
            sales = graph.add(ReadOperator(catalog.table("sales")))
            cust = graph.add(ReadOperator(catalog.table("customers")))
            join = graph.add(
                HashJoinOperator("j", ["cust"], ["ckey"], how=how),
                (sales, cust),
            )
            edf = run(graph, join)
            assert edf.get_final().n_rows == expected_rows

    def test_join_with_replace_build(self, catalog):
        """Build side is an aggregate result: buffered to its final
        snapshot (the paper's Q2/Q17 subquery pattern)."""
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        sales2 = graph.add(ReadOperator(
            catalog.table("sales"), name="read(sales2)",
            source_name="sales2"))
        per_cust = graph.add(
            AggregateOperator(
                "pc", [AggSpec("sum", "qty", "cust_total")], by=["cust"]
            ),
            (sales2,),
        )
        join = graph.add(
            HashJoinOperator("j", ["cust"], ["cust"]), (sales, per_cust)
        )
        edf = run(graph, join)
        final = edf.get_final()
        assert final.n_rows == 60
        full = catalog.table("sales").read_all()
        expected = group_aggregate(
            full, ["cust"], [AggSpec("sum", "qty", "cust_total")]
        )
        exp = dict(zip(expected.column("cust").tolist(),
                       expected.column("cust_total").tolist()))
        for c, v in zip(final.column("cust").tolist(),
                        final.column("cust_total").tolist()):
            assert v == pytest.approx(exp[c])


class TestMergeJoinOperator:
    def test_requires_clustering(self, catalog):
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        graph.add(
            MergeJoinOperator("mj", "cust", "ckey"), (sales, cust)
        )
        with pytest.raises(QueryError, match="not.*clustered|clustered"):
            graph.resolve()

    def test_streaming_self_join(self, catalog, sales_frame, tmp_path):
        # second clustered copy of sales with different partitioning
        from repro.storage import write_table

        write_table(
            catalog, tmp_path / "sales_b", "sales_b", sales_frame,
            rows_per_partition=14,
            primary_key=["okey"], clustering_key=["okey"],
        )
        graph = QueryGraph()
        a = graph.add(ReadOperator(catalog.table("sales")))
        b = graph.add(ReadOperator(catalog.table("sales_b"),
                                   source_name="sales_b"))
        join = graph.add(
            MergeJoinOperator("mj", "okey", "okey"), (a, b)
        )
        infos = graph.resolve()
        assert infos[join].delivery == Delivery.DELTA
        edf = run(graph, join)
        # each okey has 2 rows per side -> 4 joined rows per okey
        final = edf.get_final()
        assert final.n_rows == 30 * 4
        # incremental: some output must appear before the last snapshot
        assert len(edf) > 1
        assert edf.snapshots[0].frame.n_rows > 0


class TestCrossJoinOperator:
    def test_live_scalar_broadcast(self, catalog):
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        total = graph.add(
            AggregateOperator(
                "tot", [AggSpec("sum", "qty", "grand")], by=[]
            ),
            (sales,),
        )
        sales2 = graph.add(
            ReadOperator(catalog.table("sales"), name="read(sales@2)")
        )
        cross = graph.add(
            CrossJoinOperator("x"), (sales2, total)
        )
        infos = graph.resolve()
        assert infos[cross].delivery == Delivery.REPLACE
        assert infos[cross].schema.kind("grand").value == "mutable"
        edf = run(graph, cross)
        final = edf.get_final()
        assert final.n_rows == 60
        expected = catalog.table("sales").read_all().column("qty").sum()
        np.testing.assert_allclose(final.column("grand"),
                                   np.full(60, expected))


class TestSortLimitOperator:
    def test_topk(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        top = graph.add(
            SortLimitOperator("t", by=["qty"], ascending=False, limit=5),
            (read,),
        )
        infos = graph.resolve()
        assert infos[top].delivery == Delivery.REPLACE
        edf = run(graph, top)
        final = edf.get_final()
        assert final.n_rows == 5
        all_qty = catalog.table("sales").read_all().column("qty")
        np.testing.assert_allclose(
            final.column("qty"), np.sort(all_qty)[::-1][:5]
        )

    def test_limit_only(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        top = graph.add(SortLimitOperator("t", limit=7), (read,))
        edf = run(graph, top)
        assert edf.get_final().n_rows == 7

    def test_requires_keys_or_limit(self):
        with pytest.raises(QueryError):
            SortLimitOperator("t")

    def test_negative_limit(self):
        with pytest.raises(QueryError):
            SortLimitOperator("t", limit=-1)


class TestDistinctOperator:
    def test_incremental_distinct(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        distinct = graph.add(
            DistinctOperator("d", subset=["cust"]), (read,)
        )
        infos = graph.resolve()
        assert infos[distinct].delivery == Delivery.DELTA
        edf = run(graph, distinct)
        final = edf.get_final()
        assert sorted(final.column("cust").tolist()) == [
            "c0", "c1", "c2", "c3", "c4"]
        # once emitted, a key never re-appears
        seen: set[str] = set()
        for snap in edf.snapshots:
            for c in snap.frame.column("cust").tolist():
                pass
        total_emitted = sum(
            len(set(s.frame.column("cust").tolist())) for s in
            [edf.snapshots[-1]]
        )
        assert total_emitted == 5

"""Tests for the fluent API: the paper's §1 session end-to-end, plan
re-execution, and method selection."""

import numpy as np
import pytest

from repro import F, WakeContext, col
from repro.core.properties import Delivery
from repro.dataframe import AggSpec, group_aggregate, hash_join, top_k
from repro.errors import QueryError


@pytest.fixture
def ctx(catalog):
    return WakeContext(catalog)


class TestContext:
    def test_from_catalog(self, catalog, tmp_path):
        path = tmp_path / "cat.json"
        catalog.save(path)
        ctx = WakeContext.from_catalog(path)
        assert ctx.table("sales").final().n_rows == 60

    def test_unknown_table(self, ctx):
        with pytest.raises(Exception, match="not in catalog"):
            ctx.table("nope")

    def test_explain_mentions_nodes(self, ctx):
        frame = ctx.table("sales").filter(col("qty") > 5)
        text = ctx.explain(frame)
        assert "read(sales)" in text
        assert "filter#" in text
        assert "delivery=delta" in text


class TestSection1Session:
    """The paper's motivating session, §1 (rewritten TPC-H Q18)."""

    def run_session(self, ctx):
        sales = ctx.table("sales")
        order_qty = sales.agg(
            F.sum("qty").alias("sum_qty"), by=["okey", "cust"]
        )
        lg_orders = order_qty.filter(col("sum_qty") > 40)
        lg_order_cust = lg_orders.join(
            ctx.table("customers"), on=[("cust", "ckey")]
        )
        qty_per_cust = lg_order_cust.agg(
            F.sum("sum_qty").alias("total"), by=["name"]
        )
        return qty_per_cust.top_k(["total", "name"], 3,
                                  desc=[True, False])

    def reference(self, catalog):
        full = catalog.table("sales").read_all()
        customers = catalog.table("customers").read_all()
        per_order = group_aggregate(
            full, ["okey", "cust"], [AggSpec("sum", "qty", "sum_qty")]
        )
        large = per_order.mask(per_order.column("sum_qty") > 40)
        named = hash_join(large, customers, ["cust"], ["ckey"])
        per_cust = group_aggregate(
            named, ["name"], [AggSpec("sum", "sum_qty", "total")]
        )
        return top_k(per_cust, ["total", "name"], 3,
                     ascending=[False, True])

    def test_final_matches_reference(self, ctx, catalog):
        edf = self.run_session(ctx).run()
        expected = self.reference(catalog)
        got = edf.get_final()
        assert got.column("name").tolist() == expected.column(
            "name").tolist()
        np.testing.assert_allclose(got.column("total"),
                                   expected.column("total"))

    def test_plan_is_reusable(self, ctx, catalog):
        plan = self.run_session(ctx)
        first = plan.run().get_final()
        second = plan.run().get_final()
        assert first.equals(second)


class TestProjectionAPI:
    def test_select_kwargs(self, ctx):
        out = ctx.table("sales").select(
            okey="okey", double=col("qty") * 2
        ).final()
        assert out.column_names == ("okey", "double")

    def test_project(self, ctx):
        out = ctx.table("sales").project("qty", "okey").final()
        assert out.column_names == ("qty", "okey")
        with pytest.raises(QueryError):
            ctx.table("sales").project()

    def test_with_columns_keeps_existing(self, ctx):
        out = ctx.table("sales").with_columns(
            qty2=col("qty") * 2
        ).final()
        assert out.column_names == ("okey", "qty", "cust", "region",
                                    "qty2")

    def test_with_columns_replaces(self, ctx):
        out = ctx.table("sales").with_columns(qty=col("qty") * 0).final()
        assert (out.column("qty") == 0).all()

    def test_map_partitions(self, ctx):
        out = ctx.table("sales").map_partitions(
            lambda f: f.head(1)
        ).final()
        assert out.n_rows == 6  # one row per partition


class TestJoinAPI:
    def test_auto_picks_merge_for_clustered(self, catalog, tmp_path):
        from repro.storage import write_table

        sales_frame = catalog.table("sales").read_all()
        write_table(
            catalog, tmp_path / "s2", "sales2", sales_frame,
            rows_per_partition=17, primary_key=["okey"],
            clustering_key=["okey"],
        )
        ctx = WakeContext(catalog)
        joined = ctx.table("sales").join(
            ctx.table("sales2"), on="okey"
        )
        info = joined.stream_info()
        assert info.delivery == Delivery.DELTA
        assert joined.final().n_rows == 120  # 2x2 per okey * 30

    def test_auto_picks_hash_for_dimension(self, ctx):
        joined = ctx.table("sales").join(
            ctx.table("customers"), on=[("cust", "ckey")]
        )
        assert joined.final().n_rows == 60

    def test_semi_join(self, ctx):
        east_custs = (
            ctx.table("sales").filter(col("region") == "east")
            .project("cust").distinct("cust")
        )
        out = ctx.table("customers").join(
            east_custs, on=[("ckey", "cust")], how="semi"
        ).final()
        assert out.n_rows > 0
        assert "name" in out.column_names

    def test_merge_join_validation(self, ctx):
        with pytest.raises(QueryError, match="single key pair"):
            ctx.table("sales").join(
                ctx.table("customers"),
                on=[("cust", "ckey"), ("okey", "ckey")], method="merge",
            )
        with pytest.raises(QueryError, match="inner"):
            ctx.table("sales").join(
                ctx.table("customers"), on=[("cust", "ckey")],
                how="left", method="merge",
            )

    def test_empty_on_rejected(self, ctx):
        with pytest.raises(QueryError):
            ctx.table("sales").join(ctx.table("customers"), on=[])

    def test_cross_join_scalar(self, ctx, catalog):
        total = ctx.table("sales").agg(F.sum("qty").alias("grand"))
        out = ctx.table("sales").cross_join(total).final()
        expected = catalog.table("sales").read_all().column("qty").sum()
        assert out.n_rows == 60
        np.testing.assert_allclose(out.column("grand"),
                                   np.full(60, expected))


class TestAggAPI:
    def test_sugar_methods(self, ctx, catalog):
        full = catalog.table("sales").read_all()
        assert ctx.table("sales").sum("qty").final().column(
            "sum_qty")[0] == pytest.approx(full.column("qty").sum())
        assert ctx.table("sales").count().final().column(
            "count")[0] == 60
        assert ctx.table("sales").avg("qty").final().column(
            "avg_qty")[0] == pytest.approx(full.column("qty").mean())
        assert ctx.table("sales").min("qty").final().column(
            "min_qty")[0] == full.column("qty").min()
        assert ctx.table("sales").max("qty").final().column(
            "max_qty")[0] == full.column("qty").max()
        assert ctx.table("sales").count_distinct("cust").final().column(
            "distinct_cust")[0] == 5

    def test_agg_requires_exprs(self, ctx):
        with pytest.raises(QueryError):
            ctx.table("sales").agg()

    def test_default_aliases(self, ctx):
        out = ctx.table("sales").agg(
            F.sum("qty"), F.count(), by=["cust"]
        ).final()
        assert "sum_qty" in out.column_names
        assert "count" in out.column_names

    def test_ci_flag_adds_sigma(self, ctx):
        out = ctx.table("sales").agg(
            F.sum("qty").alias("s"), ci=True
        )
        edf = out.run()
        early = edf.snapshots[0].frame
        assert "s__sigma" in early.column_names

    def test_var_stddev(self, ctx, catalog):
        full = catalog.table("sales").read_all()
        out = ctx.table("sales").agg(
            F.var("qty").alias("v"), F.stddev("qty").alias("sd")
        ).final()
        assert out.column("v")[0] == pytest.approx(
            np.var(full.column("qty"), ddof=1))
        assert out.column("sd")[0] == pytest.approx(
            np.std(full.column("qty"), ddof=1))


class TestSortLimitAPI:
    def test_sort_desc(self, ctx):
        out = ctx.table("sales").sort("qty", desc=True).final()
        qty = out.column("qty")
        assert (np.diff(qty) <= 0).all()

    def test_limit(self, ctx):
        assert ctx.table("sales").limit(9).final().n_rows == 9

    def test_top_k_mixed_direction(self, ctx):
        out = ctx.table("sales").top_k(["qty", "okey"], 4,
                                       desc=[True, False]).final()
        assert out.n_rows == 4

    def test_distinct(self, ctx):
        out = ctx.table("sales").distinct("region").final()
        assert sorted(out.column("region").tolist()) == ["east", "west"]


class TestSnapshotStream:
    def test_snapshots_expose_progress(self, ctx):
        edf = ctx.table("sales").sum("qty", by=["cust"]).run()
        ts = [s.t for s in edf.snapshots]
        assert ts == sorted(ts)
        assert ts[-1] == 1.0

    def test_estimates_near_final_early(self, ctx):
        edf = ctx.table("sales").sum("qty").run()
        final = edf.get_final().column("sum_qty")[0]
        first = edf.snapshots[0].frame.column("sum_qty")[0]
        assert first == pytest.approx(final, rel=0.6)

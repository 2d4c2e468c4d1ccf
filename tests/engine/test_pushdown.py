"""Scan-layer pushdown: projection collection, zone-map pruning, and the
restart-safe reader.

The invariant everything here guards: pushdown is *semantically
invisible*.  Projection only removes columns no downstream operator can
reference, and a pruned partition still advances progress by its tuple
count through an empty partial — finals, snapshot frames, and progress
``t`` sequences are byte-identical with pushdown off.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions, F, WakeContext, col
from repro.analysis.schema_check import infer_plan
from repro.dataframe import DataFrame
from repro.engine.graph import QueryGraph
from repro.engine.ops import ReadOperator
from repro.engine.planner import projection_pass, pruning_pass
from repro.storage import Catalog, write_table
from repro.storage.zonemap import (
    SargablePredicate,
    column_stats,
    sargable_conjuncts,
)


def _pushed_reads(plan):
    """Materialize a plan, run the pushdown pass, return its scans."""
    graph = QueryGraph()
    output = plan.plan.materialize(graph, {}, plan.context.options)
    pruning_pass(graph, output)
    projection_pass(graph, output, infer_plan(graph, output))
    return {
        graph.node(nid).operator.meta.name: graph.node(nid).operator
        for nid in graph.source_ids()
        if isinstance(graph.node(nid).operator, ReadOperator)
    }


def assert_frames_byte_identical(got, expected):
    assert tuple(got.column_names) == tuple(expected.column_names)
    assert got.n_rows == expected.n_rows
    for name in expected.column_names:
        assert (got.column(name).tobytes()
                == expected.column(name).tobytes())


class TestProjectionCollection:
    def test_filter_select_agg_chain(self, catalog):
        ctx = WakeContext(catalog)
        plan = (
            ctx.table("sales")
            .filter(col("okey") < 15)
            .select(gain=col("qty") * 2.0)
            .agg(F.sum("gain").alias("s"))
        )
        reads = _pushed_reads(plan)
        # qty feeds the select, okey only the filter — region/cust drop.
        assert reads["sales"].columns == ("okey", "qty")

    def test_join_maps_columns_to_both_sides(self, catalog):
        ctx = WakeContext(catalog)
        joined = ctx.table("sales").join(
            ctx.table("customers"), on=[("cust", "ckey")]
        )
        plan = joined.select(("qty", col("qty")), ("name", col("name")))
        reads = _pushed_reads(plan)
        assert reads["sales"].columns == ("qty", "cust")
        assert reads["customers"].columns == ("ckey", "name")

    def test_count_keeps_one_column(self, catalog):
        ctx = WakeContext(catalog)
        reads = _pushed_reads(ctx.table("sales").count())
        # No column is referenced, but a zero-column frame would lose
        # the row count — the primary key survives as the cheapest scan.
        assert reads["sales"].columns == ("okey",)

    def test_bare_scan_is_untouched(self, catalog):
        ctx = WakeContext(catalog)
        reads = _pushed_reads(ctx.table("sales"))
        assert reads["sales"].columns is None
        assert reads["sales"].predicates == ()

    def test_projection_drops_unselected_keys(self, catalog):
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").agg(F.sum("qty").alias("s"))
        graph = QueryGraph()
        output = plan.plan.materialize(graph, {}, plan.context.options)
        projection_pass(graph, output, infer_plan(graph, output))
        infos = graph.resolve()
        read_id = graph.source_ids()[0]
        # okey (the clustering+primary key) is not read, so the scan
        # must not advertise key/clustering properties it cannot honor.
        assert infos[read_id].schema.names == ("qty",)
        assert infos[read_id].primary_key == ()
        assert infos[read_id].clustering_key == ()


class TestPredicateCollection:
    def test_predicates_reach_the_scan(self, catalog):
        ctx = WakeContext(catalog)
        plan = (
            ctx.table("sales")
            .filter((col("okey") < 15) & (col("qty") > 0.0))
            .agg(F.sum("qty").alias("s"))
        )
        reads = _pushed_reads(plan)
        assert set((p.column, p.op) for p in reads["sales"].predicates) \
            == {("okey", "<"), ("qty", ">")}

    def test_rename_translates_column_names(self, catalog):
        ctx = WakeContext(catalog)
        plan = (
            ctx.table("sales")
            .select(key=col("okey"), qty=col("qty"))
            .filter(col("key") < 15)
            .agg(F.sum("qty").alias("s"))
        )
        reads = _pushed_reads(plan)
        assert [(p.column, p.op, p.value)
                for p in reads["sales"].predicates] == [("okey", "<", 15)]

    def test_fan_out_blocks_predicate_pushdown(self, catalog):
        """A second subscriber sees unfiltered rows — pruning for one
        branch would corrupt the other."""
        ctx = WakeContext(catalog)
        base = ctx.table("sales")
        filtered = base.filter(col("okey") < 5).sum("qty")
        everything = base.sum("qty")
        combined = filtered.cross_join(everything, suffix="_all")
        reads = _pushed_reads(combined)
        assert reads["sales"].predicates == ()

    def test_derived_filter_is_not_sargable(self, catalog):
        ctx = WakeContext(catalog)
        plan = (
            ctx.table("sales")
            .filter(col("qty") * 2.0 > 10.0)
            .agg(F.sum("qty").alias("s"))
        )
        reads = _pushed_reads(plan)
        assert reads["sales"].predicates == ()


class TestZoneMapEvaluation:
    def test_sargable_extraction(self):
        expr = (
            col("a").between(3, 7)
            & (col("b") == "x")
            & ((col("a") > 1) | (col("b") == "y"))  # disjunction: dropped
            & col("c").isin([1, 2])
        )
        preds = sargable_conjuncts(expr)
        assert [(p.column, p.op) for p in preds] == [
            ("a", ">="), ("a", "<"), ("b", "=="), ("c", "isin"),
        ]

    def test_literal_on_the_left_flips(self):
        from repro.dataframe.expr import lit

        (pred,) = sargable_conjuncts(lit(5) > col("a"))
        assert (pred.column, pred.op, pred.value) == ("a", "<", 5)

    def test_may_match_ranges(self):
        stats = {"min": 10, "max": 20, "nulls": 0}
        assert SargablePredicate("a", ">", 19).may_match(stats)
        assert not SargablePredicate("a", ">", 20).may_match(stats)
        assert SargablePredicate("a", ">=", 20).may_match(stats)
        assert not SargablePredicate("a", "<", 10).may_match(stats)
        assert SargablePredicate("a", "==", 15).may_match(stats)
        assert not SargablePredicate("a", "==", 9).may_match(stats)
        assert SargablePredicate("a", "isin", (1, 12)).may_match(stats)
        assert not SargablePredicate("a", "isin", (1, 2)).may_match(stats)

    def test_all_null_partition_prunes_comparisons(self):
        stats = column_stats(np.array([np.nan, np.nan]))
        assert not SargablePredicate("a", ">", 0.0).may_match(stats)

    def test_mixed_types_never_prune(self):
        stats = {"min": "alpha", "max": "zeta", "nulls": 0}
        assert SargablePredicate("a", ">", 3).may_match(stats)

    def test_missing_stats_never_prune(self):
        assert SargablePredicate("a", ">", 3).may_match(None)


class TestPrunedExecutionParity:
    @pytest.fixture
    def plans(self, catalog):
        def build(ctx):
            return (
                ctx.table("sales")
                .filter(col("okey") < 15)
                .agg(F.sum("qty").alias("s"), by=["cust"])
            )

        return build

    def test_partitions_actually_pruned(self, catalog, plans):
        ctx = WakeContext(catalog)
        reads = _pushed_reads(plans(ctx))
        # sales partitions hold okeys [0-4],[5-9],...,[25-29]; the last
        # three can never satisfy okey < 15.
        assert reads["sales"].pruned_partitions() == frozenset({3, 4, 5})

    def test_finals_and_progress_identical(self, catalog, plans):
        on = WakeContext(catalog)
        off = WakeContext(catalog,
                          options=ExecutionOptions(pushdown=False))
        seq_on = on.run(plans(on))
        seq_off = off.run(plans(off))
        assert len(seq_on) == len(seq_off)
        for a, b in zip(seq_on.snapshots, seq_off.snapshots):
            assert dict(a.progress.done) == dict(b.progress.done)
            assert a.t == b.t
            assert_frames_byte_identical(a.frame, b.frame)

    def test_shuffled_order_composes_with_pruning(self, catalog, plans):
        on = WakeContext(catalog, partition_shuffle_seed=11)
        off = WakeContext(catalog, partition_shuffle_seed=11,
                          options=ExecutionOptions(pushdown=False))
        assert_frames_byte_identical(
            on.run(plans(on), capture_all=False).get_final(),
            off.run(plans(off), capture_all=False).get_final(),
        )

    def test_explain_renders_pushdowns(self, catalog, plans):
        ctx = WakeContext(catalog)
        text = ctx.explain(plans(ctx))
        assert "columns=['okey', 'qty', 'cust']" in text
        assert "okey < 15" in text
        assert "prune=3/6" in text
        assert "scan" in text
        off = ctx.explain(plans(ctx),
                          options=ExecutionOptions(pushdown=False))
        assert "prune=" not in off


class TestRestartSafeStream:
    def test_two_full_streams_do_not_double_count(self, catalog):
        read = ReadOperator(catalog.table("sales"))
        first = list(read.stream())
        again = list(read.stream())
        assert len(first) == len(again) == 6
        assert read.progress.done == {"sales": 60}
        assert read.progress.is_complete

    def test_restart_resets_per_stream_progress(self, catalog):
        """An abandoned iteration (e.g. a retried dry-run) must not leak
        stale progress into the next stream."""
        read = ReadOperator(catalog.table("sales"))
        stream = read.stream()
        next(stream)
        next(stream)
        assert read.progress.done == {"sales": 20}
        replay = list(read.stream())
        assert [m.progress.done["sales"] for m in replay] == [
            10, 20, 30, 40, 50, 60,
        ]
        assert read.progress.done == {"sales": 60}


@settings(max_examples=15, deadline=None)
@given(
    values=st.lists(st.integers(-50, 50), min_size=40, max_size=40),
    threshold=st.integers(-60, 60),
)
def test_pruned_scan_property(values, threshold):
    """Any data + any sargable threshold: pruned and unpruned scans give
    byte-identical finals and identical snapshot ``t`` sequences."""
    with tempfile.TemporaryDirectory() as tmp:
        frame = DataFrame({
            "k": np.sort(np.array(values, dtype=np.int64)),
            "v": np.arange(40, dtype=np.float64),
        })
        cat = Catalog(root=tmp)
        write_table(cat, Path(tmp), "t", frame, rows_per_partition=10,
                    primary_key=[])
        def build(ctx):
            return (
                ctx.table("t")
                .filter(col("k") <= threshold)
                .agg(F.sum("v").alias("s"), F.count().alias("n"))
            )

        on = WakeContext(cat)
        off = WakeContext(cat, options=ExecutionOptions(pushdown=False))
        seq_on = on.run(build(on))
        seq_off = off.run(build(off))
        assert len(seq_on) == len(seq_off)
        for a, b in zip(seq_on.snapshots, seq_off.snapshots):
            assert a.t == b.t
            assert dict(a.progress.done) == dict(b.progress.done)
            assert_frames_byte_identical(a.frame, b.frame)

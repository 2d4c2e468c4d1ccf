"""Exchange/union operators and the shard-plan rewrite."""

import numpy as np
import pytest

from repro.dataframe import AggSpec, DataFrame, col, group_aggregate
from repro.core.properties import Delivery, Progress, StreamInfo
from repro.engine import QueryGraph, StepExecutor
from repro.engine.message import Message
from repro.engine.ops import (
    AggregateOperator,
    ExchangeOperator,
    FilterOperator,
    HashJoinOperator,
    ReadOperator,
    SelectOperator,
    UnionOperator,
)
from repro.engine.ops.exchange import ShardHashCache, shard_assignment
from repro.engine.planner import shard_plan
from repro.errors import QueryError


def run(graph, output, **kwargs):
    return StepExecutor(graph, output, **kwargs).run()


class TestShardAssignment:
    def test_partition_complete_and_stable(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 1000, size=5000).astype(np.int64)
        shards = shard_assignment([keys], 4)
        assert shards.shape == keys.shape
        assert set(np.unique(shards)) <= {0, 1, 2, 3}
        # deterministic, and equal keys always co-locate
        again = shard_assignment([keys], 4)
        np.testing.assert_array_equal(shards, again)
        for value in np.unique(keys)[:50]:
            assert len(set(shards[keys == value])) == 1

    def test_reasonably_balanced(self):
        keys = np.arange(10_000, dtype=np.int64)
        counts = np.bincount(shard_assignment([keys], 4), minlength=4)
        assert counts.min() > 10_000 / 4 * 0.8

    def test_numeric_dtype_agnostic(self):
        # An int64 probe key and a float64 build key with equal values
        # must land on the same shard (join co-partitioning).
        ints = np.array([1, 2, 3, 100], dtype=np.int64)
        floats = ints.astype(np.float64)
        np.testing.assert_array_equal(
            shard_assignment([ints], 8), shard_assignment([floats], 8)
        )

    def test_zero_and_nan_canonicalized(self):
        vals = np.array([0.0, -0.0, np.nan, np.nan])
        shards = shard_assignment([vals], 16)
        assert shards[0] == shards[1]
        assert shards[2] == shards[3]

    def test_string_keys_width_independent(self):
        narrow = np.array(["ab", "cd"])  # <U2
        wide = np.array(["ab", "cd", "longerentry"])[:2]  # <U11 storage
        np.testing.assert_array_equal(
            shard_assignment([narrow], 8), shard_assignment([wide], 8)
        )

    def test_multi_column(self):
        a = np.array([1, 1, 2, 2], dtype=np.int64)
        b = np.array(["x", "y", "x", "y"])
        shards = shard_assignment([a, b], 64)
        # all four key combinations are distinct; with 64 shards at
        # least two must separate (sanity that both columns contribute)
        assert len(set(shards.tolist())) >= 2
        np.testing.assert_array_equal(
            shards, shard_assignment([a, b], 64)
        )

    def test_empty_and_errors(self):
        assert shard_assignment(
            [np.empty(0, dtype=np.int64)], 4
        ).shape == (0,)
        with pytest.raises(QueryError):
            shard_assignment([], 4)


class TestExchangeOperator:
    def _info(self):
        frame = DataFrame({"k": np.arange(4, dtype=np.int64),
                           "v": np.ones(4)})
        return frame, StreamInfo(schema=frame.schema,
                                 delivery=Delivery.DELTA)

    def _message(self, frame, kind=Delivery.DELTA):
        progress = Progress(done={"t": 4}, total={"t": 8})
        return Message(frame=frame, progress=progress, kind=kind)

    def test_ports_partition_the_stream(self):
        frame, info = self._info()
        cache = ShardHashCache(("k",), 3)
        ports = [
            ExchangeOperator(f"ex{i}", ["k"], i, 3, cache=cache)
            for i in range(3)
        ]
        for port in ports:
            port.bind((info,))
        outs = [port.on_message(0, self._message(frame))[0]
                for port in ports]
        total = DataFrame.concat([m.frame for m in outs])
        assert total.n_rows == frame.n_rows
        assert sorted(total.column("k").tolist()) == [0, 1, 2, 3]
        for message in outs:
            assert message.kind == Delivery.DELTA
            assert message.progress.done["t"] == 4

    def test_replace_kind_and_info_pass_through(self):
        frame, info = self._info()
        op = ExchangeOperator("ex", ["k"], 0, 2)
        out_info = op.bind((info,))
        assert out_info.delivery == Delivery.DELTA
        assert out_info.schema is info.schema
        out = op.on_message(
            0, self._message(frame, kind=Delivery.REPLACE)
        )[0]
        assert out.kind == Delivery.REPLACE

    def test_cache_hashes_once_per_frame(self):
        frame, _ = self._info()
        cache = ShardHashCache(("k",), 2)
        first = cache.shards_for(frame)
        assert cache.shards_for(frame) is first

    def test_cache_entry_dropped_on_kth_read(self):
        frame, _ = self._info()
        cache = ShardHashCache(("k",), 3)
        reads = [cache.shards_for(frame) for _ in range(3)]
        assert reads[1] is reads[0] and reads[2] is reads[0]
        assert not cache._entries  # every sibling port has read it
        # An operator that re-emits the same frame object starts a new
        # K-read cycle with a fresh assignment, not the drained entry.
        again = cache.shards_for(frame)
        assert again is not reads[0]
        np.testing.assert_array_equal(again, reads[0])
        assert len(cache._entries) == 1

    def test_cache_never_serves_another_frames_assignment(self):
        """Entries pin their frame, so an id cannot be recycled into a
        stale hit; unread entries fall off the FIFO cap instead."""
        cache = ShardHashCache(("k",), 2)
        frames = [
            DataFrame({"k": np.arange(i, i + 4, dtype=np.int64)})
            for i in range(ShardHashCache.CAPACITY + 8)
        ]
        for frame in frames:
            np.testing.assert_array_equal(
                cache.shards_for(frame),
                shard_assignment([frame.column("k")], 2),
            )
        kept = [entry[0] for entry in cache._entries.values()]
        assert len(kept) == ShardHashCache.CAPACITY
        assert all(a is b for a, b in
                   zip(kept, frames[-ShardHashCache.CAPACITY:]))

    def test_validation(self):
        frame, info = self._info()
        with pytest.raises(QueryError, match="out of range"):
            ExchangeOperator("ex", ["k"], 2, 2)
        with pytest.raises(QueryError, match="n_shards"):
            ExchangeOperator("ex", ["k"], 0, 0)
        with pytest.raises(QueryError, match="shared cache"):
            ExchangeOperator(
                "ex", ["k"], 0, 2, cache=ShardHashCache(("k",), 3)
            )
        op = ExchangeOperator("ex", ["nope"], 0, 2)
        with pytest.raises(QueryError, match="unknown key"):
            op.bind((info,))


class TestUnionOperator:
    def _replace_info(self, frame):
        return StreamInfo(schema=frame.schema, primary_key=("k",),
                          delivery=Delivery.REPLACE)

    def _msg(self, frame, done, total=16, kind=Delivery.REPLACE):
        return Message(
            frame=frame,
            progress=Progress(done={"t": done}, total={"t": total}),
            kind=kind,
        )

    def test_replace_combine_key_sorted_and_slowest_progress(self):
        a = DataFrame({"k": np.array([3, 1], dtype=np.int64),
                       "s": np.array([30.0, 10.0])})
        b = DataFrame({"k": np.array([2], dtype=np.int64),
                       "s": np.array([20.0])})
        union = UnionOperator("u", 2, sort_keys=("k",))
        union.bind((self._replace_info(a), self._replace_info(b)))
        # port 1 is live but silent: its groups are missing, so no
        # combined snapshot may be emitted yet
        assert union.on_message(0, self._msg(a, done=8)) == []
        second = union.on_message(1, self._msg(b, done=4))[0]
        assert second.kind == Delivery.REPLACE
        assert second.frame.column("k").tolist() == [1, 2, 3]
        assert second.frame.column("s").tolist() == [10.0, 20.0, 30.0]
        # aligned to the slowest shard
        assert second.progress.done["t"] == 4

    def test_final_flush_emits_once(self):
        a = DataFrame({"k": np.array([1], dtype=np.int64),
                       "s": np.array([1.0])})
        union = UnionOperator("u", 2, sort_keys=("k",))
        union.bind((self._replace_info(a), self._replace_info(a)))
        union.on_message(0, self._msg(a, done=16))
        # port 1 never reports; EOFs close the stream
        assert union.on_eof(0) == []
        flush = union.on_eof(1)
        assert len(flush) == 1
        assert flush[0].frame.column("k").tolist() == [1]

    def test_no_duplicate_final_after_complete_combine(self):
        a = DataFrame({"k": np.array([1], dtype=np.int64),
                       "s": np.array([1.0])})
        union = UnionOperator("u", 2, sort_keys=("k",))
        union.bind((self._replace_info(a), self._replace_info(a)))
        union.on_message(0, self._msg(a, done=16))
        out = union.on_message(1, self._msg(a, done=16))
        assert out[0].progress.is_complete
        assert union.on_eof(0) == []
        assert union.on_eof(1) == []  # already sealed

    def test_delta_pass_through(self):
        frame = DataFrame({"k": np.array([1], dtype=np.int64)})
        info = StreamInfo(schema=frame.schema, delivery=Delivery.DELTA)
        union = UnionOperator("u", 2)
        out_info = union.bind((info, info))
        assert out_info.delivery == Delivery.DELTA
        message = self._msg(frame, done=4, kind=Delivery.DELTA)
        assert union.on_message(1, message) == [message]
        assert union.on_eof(0) == []
        assert union.on_eof(1) == []

    def test_mixed_delivery_rejected(self):
        frame = DataFrame({"k": np.array([1], dtype=np.int64)})
        delta = StreamInfo(schema=frame.schema, delivery=Delivery.DELTA)
        replace = StreamInfo(schema=frame.schema,
                             delivery=Delivery.REPLACE)
        with pytest.raises(QueryError, match="mixed"):
            UnionOperator("u", 2).bind((delta, replace))

    def test_schema_mismatch_rejected(self):
        a = DataFrame({"k": np.array([1], dtype=np.int64)})
        b = DataFrame({"x": np.array([1.5])})
        with pytest.raises(QueryError, match="schemas differ"):
            UnionOperator("u", 2).bind((
                StreamInfo(schema=a.schema, delivery=Delivery.REPLACE),
                StreamInfo(schema=b.schema, delivery=Delivery.REPLACE),
            ))


def _agg_graph(catalog):
    """sales shuffle aggregate: sum(qty) by cust (non-clustered key)."""
    graph = QueryGraph()
    read = graph.add(ReadOperator(catalog.table("sales")))
    agg = graph.add(
        AggregateOperator("agg", [AggSpec("sum", "qty", "s")],
                          by=["cust"]),
        (read,),
    )
    return graph, agg


class TestShardPlan:
    def test_parallelism_one_is_identity(self, catalog):
        graph, agg = _agg_graph(catalog)
        new, output = shard_plan(graph, agg, 1)
        assert new is graph and output == agg

    def test_no_shardable_nodes_is_identity(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        filt = graph.add(
            FilterOperator("f", col("qty") > 0), (read,)
        )
        new, output = shard_plan(graph, filt, 4)
        assert new is graph and output == filt

    def test_direct_agg_sharding_structure(self, catalog):
        graph, agg = _agg_graph(catalog)
        new, output = shard_plan(graph, agg, 3)
        ops = [node.operator for node in new.nodes.values()]
        assert sum(isinstance(o, ExchangeOperator) for o in ops) == 3
        assert sum(isinstance(o, AggregateOperator) for o in ops) == 3
        assert sum(isinstance(o, UnionOperator) for o in ops) == 1
        assert isinstance(new.node(output).operator, UnionOperator)
        # downstream-visible info matches the unsharded operator's
        infos = new.resolve()
        assert infos[output].delivery == Delivery.REPLACE
        assert infos[output].primary_key == ("cust",)

    def test_sharded_final_byte_identical(self, catalog, sales_frame):
        graph, agg = _agg_graph(catalog)
        base = run(graph, agg).get_final()
        graph2, agg2 = _agg_graph(catalog)
        new, output = shard_plan(graph2, agg2, 4)
        sharded = run(new, output).get_final()
        assert tuple(base.column_names) == tuple(sharded.column_names)
        for name in base.column_names:
            assert (base.column(name).tobytes()
                    == sharded.column(name).tobytes()), name
        expected = group_aggregate(
            sales_frame, ["cust"], [AggSpec("sum", "qty", "s")]
        )
        assert sorted(sharded.column("cust").tolist()) == sorted(
            expected.column("cust").tolist()
        )

    def _join_agg_graph(self, catalog):
        """Group by the join key over a hash join: the fusable shape."""
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        join = graph.add(
            HashJoinOperator("j", ["cust"], ["ckey"]), (sales, cust)
        )
        sel = graph.add(
            SelectOperator(
                "sel", [("cust", col("cust")), ("qty", col("qty"))]
            ),
            (join,),
        )
        agg = graph.add(
            AggregateOperator("agg", [AggSpec("sum", "qty", "s")],
                              by=["cust"]),
            (sel,),
        )
        return graph, agg

    def test_fused_join_sharding(self, catalog, sales_frame,
                                 customers_frame):
        graph, agg = self._join_agg_graph(catalog)
        base = run(graph, agg).get_final()

        graph2, agg2 = self._join_agg_graph(catalog)
        new, output = shard_plan(graph2, agg2, 3)
        ops = [node.operator for node in new.nodes.values()]
        # both join inputs exchanged per shard + replicated join chain
        assert sum(isinstance(o, ExchangeOperator) for o in ops) == 6
        assert sum(isinstance(o, HashJoinOperator) for o in ops) == 3
        assert sum(isinstance(o, SelectOperator) for o in ops) == 3
        assert sum(isinstance(o, AggregateOperator) for o in ops) == 3
        sharded = run(new, output).get_final()
        for name in base.column_names:
            assert (base.column(name).tobytes()
                    == sharded.column(name).tobytes()), name

    def test_unaligned_join_not_fused(self, catalog):
        """Group keys disjoint from join keys: exchange sits on the
        aggregate input; the join stays a single shard."""
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        join = graph.add(
            HashJoinOperator("j", ["cust"], ["ckey"]), (sales, cust)
        )
        agg = graph.add(
            AggregateOperator("agg", [AggSpec("sum", "qty", "s")],
                              by=["segment"]),
            (join,),
        )
        base = run(graph, agg).get_final()

        graph2 = QueryGraph()
        sales2 = graph2.add(ReadOperator(catalog.table("sales")))
        cust2 = graph2.add(ReadOperator(catalog.table("customers")))
        join2 = graph2.add(
            HashJoinOperator("j", ["cust"], ["ckey"]), (sales2, cust2)
        )
        agg2 = graph2.add(
            AggregateOperator("agg", [AggSpec("sum", "qty", "s")],
                              by=["segment"]),
            (join2,),
        )
        new, output = shard_plan(graph2, agg2, 2)
        ops = [node.operator for node in new.nodes.values()]
        assert sum(isinstance(o, HashJoinOperator) for o in ops) == 1
        assert sum(isinstance(o, ExchangeOperator) for o in ops) == 2
        sharded = run(new, output).get_final()
        for name in base.column_names:
            assert (base.column(name).tobytes()
                    == sharded.column(name).tobytes()), name

    def test_shared_join_not_fused(self, catalog):
        """A join with two consumers must not be replicated."""
        graph = QueryGraph()
        sales = graph.add(ReadOperator(catalog.table("sales")))
        cust = graph.add(ReadOperator(catalog.table("customers")))
        join = graph.add(
            HashJoinOperator("j", ["cust"], ["ckey"]), (sales, cust)
        )
        agg = graph.add(
            AggregateOperator("agg", [AggSpec("sum", "qty", "s")],
                              by=["cust"]),
            (join,),
        )
        graph.add(
            FilterOperator("f", col("qty") > 0), (join,)
        )
        new, output = shard_plan(graph, agg, 2)
        ops = [node.operator for node in new.nodes.values()]
        # join kept whole; only the aggregate sharded
        assert sum(isinstance(o, HashJoinOperator) for o in ops) == 1
        assert sum(isinstance(o, ExchangeOperator) for o in ops) == 2
        assert any(isinstance(o, FilterOperator) for o in ops)


class TestContextParallelism:
    def test_knob_validation(self, catalog):
        from repro import WakeContext

        with pytest.raises(QueryError, match="parallelism"):
            WakeContext(catalog, parallelism=0)
        ctx = WakeContext(catalog)
        plan = ctx.table("sales").sum("qty", by=["cust"])
        with pytest.raises(QueryError, match="parallelism"):
            ctx.run(plan, parallelism=0)

    def test_default_keeps_snapshot_sequence_identical(self, catalog):
        from repro import WakeContext

        ctx = WakeContext(catalog)
        plan = ctx.table("sales").sum("qty", by=["cust"])
        base = ctx.run(plan)
        explicit = ctx.run(plan, parallelism=1)
        assert len(base) == len(explicit)
        for a, b in zip(base.snapshots, explicit.snapshots):
            assert a.t == b.t
            assert a.frame.equals(b.frame, rtol=0, atol=0)

    def test_session_default_parallelism(self, catalog):
        from repro import WakeContext

        ctx1 = WakeContext(catalog)
        ctx4 = WakeContext(catalog, parallelism=4)
        plan1 = ctx1.table("sales").sum("qty", by=["cust"])
        plan4 = ctx4.table("sales").sum("qty", by=["cust"])
        base = ctx1.run(plan1, capture_all=False).get_final()
        sharded = ctx4.run(plan4, capture_all=False).get_final()
        for name in base.column_names:
            assert (base.column(name).tobytes()
                    == sharded.column(name).tobytes()), name
        assert "union" in ctx4.explain(plan4)

    def test_single_partition_no_false_finality(self, tmp_path):
        """One source partition carries complete progress; the first
        shard's refresh must not masquerade as the final snapshot while
        the other shards' groups are still missing."""
        import numpy as np

        from repro import WakeContext
        from repro.dataframe import DataFrame
        from repro.storage import Catalog, write_table

        frame = DataFrame({
            "okey": np.arange(8, dtype=np.int64),
            "g": np.arange(8, dtype=np.int64),
            "v": np.ones(8),
        })
        cat = Catalog(root=str(tmp_path))
        write_table(cat, tmp_path / "t", "t", frame,
                    rows_per_partition=8, primary_key=["okey"])
        ctx = WakeContext(cat)
        plan = ctx.table("t").sum("v", by=["g"])
        edf = ctx.run(plan, parallelism=4)
        finals = [s for s in edf.snapshots if s.progress.is_complete]
        n_groups = 8
        for snapshot in finals:
            assert snapshot.frame.n_rows == n_groups, (
                "snapshot claims completeness but misses groups"
            )
        assert edf.get_final().n_rows == n_groups
        # capture_all=False keeps (first, final); the first snapshot
        # must not pretend to be exact with missing groups
        small = ctx.run(plan, parallelism=4, capture_all=False)
        first = small.snapshots[0]
        assert (not first.progress.is_complete
                or first.frame.n_rows == n_groups)

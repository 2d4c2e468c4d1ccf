"""Regression tests: a REPLACE input that shrinks to zero groups must
retract the previous estimate with an empty snapshot — staying silent
leaves the stale estimate in every downstream sink forever."""

import numpy as np
import pytest

from repro.core.properties import Delivery, Progress, StreamInfo
from repro.dataframe import (
    AggSpec,
    DataFrame,
    DType,
    Field,
    Schema,
    col,
)
from repro.engine import Message, QueryGraph, StepExecutor
from repro.engine.ops import AggregateOperator, FilterOperator, ReadOperator


def replace_info():
    return StreamInfo(
        Schema([
            Field("k", DType.INT64),
            Field("v", DType.FLOAT64),
        ]),
        delivery=Delivery.REPLACE,
    )


def message(frame, done, total=4, kind=Delivery.REPLACE):
    return Message(
        frame=frame,
        progress=Progress(done={"t": done}, total={"t": total}),
        kind=kind,
    )


def snapshot(n):
    return DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": np.arange(n, dtype=np.float64) + 1.0,
        }
    )


class TestOperatorLevel:
    def make_op(self):
        op = AggregateOperator(
            "a", [AggSpec("sum", "v", "s")], by=["k"]
        )
        op.bind((replace_info(),))
        return op

    def test_nonempty_to_empty_emits_empty_replace(self):
        op = self.make_op()
        out = op.on_message(0, message(snapshot(3), done=1))
        assert len(out) == 1 and out[0].frame.n_rows == 3

        out = op.on_message(0, message(snapshot(0), done=2))
        assert len(out) == 1, "stale estimate must be retracted"
        assert out[0].kind == Delivery.REPLACE
        assert out[0].frame.n_rows == 0
        # Planned layout preserved (2C consistency for the sink).
        assert out[0].frame.schema.names == ("k", "s")

    def test_final_flush_retracts_stale_estimate(self):
        op = self.make_op()
        op.on_message(0, message(snapshot(3), done=1))
        op.on_message(0, message(snapshot(0), done=4))
        flush = op.on_eof(0)
        # The empty input at t=1 already produced the empty final; EOF
        # must not resurrect the old estimate.
        assert all(m.frame.n_rows == 0 for m in flush)

    def test_eof_after_nonfinal_empty_emits_empty_final(self):
        op = self.make_op()
        op.on_message(0, message(snapshot(3), done=1))
        op.on_message(0, message(snapshot(0), done=2))
        flush = op.on_eof(0)
        assert len(flush) == 1
        assert flush[0].frame.n_rows == 0
        assert flush[0].kind == Delivery.REPLACE

    def test_empty_prefix_still_emits_nothing(self):
        """Before any estimate exists there is nothing to retract: empty
        input prefixes must not produce spurious empty snapshots."""
        op = self.make_op()
        out = op.on_message(0, message(snapshot(0), done=1))
        assert out == []
        out = op.on_message(0, message(snapshot(2), done=2))
        assert len(out) == 1 and out[0].frame.n_rows == 2

    def test_empty_delta_stream_unchanged(self):
        op = AggregateOperator("a", [AggSpec("sum", "v", "s")], by=["k"])
        info = StreamInfo(
            Schema([
                Field("k", DType.INT64),
                Field("v", DType.FLOAT64),
            ]),
            delivery=Delivery.DELTA,
        )
        op.bind((info,))
        out = op.on_message(
            0, message(snapshot(0), done=1, kind=Delivery.DELTA)
        )
        assert out == []
        assert op.on_eof(0) == []


class TestEndToEnd:
    def test_shrinking_replace_input_yields_empty_final(self, catalog):
        """agg -> filter(estimate < exact total) -> agg: intermediate
        raw-merge estimates pass the filter, the exact final does not, so
        the downstream count's final snapshot must be empty — not the
        stale count of the last non-empty snapshot."""
        total = float(catalog.table("sales").read_all().column("qty").sum())
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        inner = graph.add(
            AggregateOperator(
                "inner", [AggSpec("sum", "qty", "s")], by=[],
                growth_mode="none",  # raw merges: strictly below total
            ),
            (read,),
        )
        filt = graph.add(
            FilterOperator("shrink", col("s") < total), (inner,)
        )
        outer = graph.add(
            AggregateOperator("outer", [AggSpec("count", None, "n")]),
            (filt,),
        )
        edf = StepExecutor(graph, outer).run()
        nonempty = [s for s in edf.snapshots if s.frame.n_rows > 0]
        assert nonempty, "intermediate estimates should pass the filter"
        assert max(
            s.frame.column("n")[0] for s in nonempty
        ) == pytest.approx(1.0)
        final = edf.get_final()
        assert final.n_rows == 0, (
            "non-empty -> empty REPLACE transition left a stale estimate"
        )

"""Failure injection and operator-contract tests for the executor."""

import numpy as np
import pytest

from repro.core.properties import Delivery, Progress, StreamInfo
from repro.dataframe import DataFrame, DType, Field, Schema, col
from repro.engine import Message, QueryGraph, StepExecutor
from repro.engine.ops import (
    FilterOperator,
    MapPartitionsOperator,
    ReadOperator,
)
from repro.engine.ops.base import Operator, SourceOperator
from repro.errors import ExecutionError


class ExplodingOperator(Operator):
    """Raises after processing ``after`` messages."""

    def __init__(self, name="boom", after=1):
        super().__init__(name)
        self.after = after
        self.seen = 0

    def _derive_info(self, inputs):
        return inputs[0]

    def _handle_message(self, port, message):
        self.seen += 1
        if self.seen > self.after:
            raise RuntimeError("injected failure")
        return [message]


class TestFailureInjection:
    def build(self, catalog, after):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        boom = graph.add(ExplodingOperator(after=after), (read,))
        return graph, boom

    def test_original_exception_propagates(self, catalog):
        graph, boom = self.build(catalog, after=2)
        executor = StepExecutor(graph, boom)
        with pytest.raises(RuntimeError, match="injected failure"):
            executor.run()
        # A dispatch failure may have half-updated operator state.
        assert not executor.step_retry_safe

    def test_failure_in_mid_pipeline(self, catalog):
        graph = QueryGraph()
        read = graph.add(ReadOperator(catalog.table("sales")))
        boom = graph.add(ExplodingOperator(after=1), (read,))
        filt = graph.add(FilterOperator("f", col("qty") > 0), (boom,))
        with pytest.raises(RuntimeError, match="injected failure"):
            StepExecutor(graph, filt).run()


class TestOperatorContracts:
    def info(self):
        return StreamInfo(
            Schema([Field("x", DType.FLOAT64)]),
            delivery=Delivery.DELTA,
        )

    def message(self):
        return Message(
            frame=DataFrame({"x": np.array([1.0])}),
            progress=Progress(done={"t": 1}, total={"t": 2}),
        )

    def test_unbound_operator_rejects_access(self):
        op = FilterOperator("f", col("x") > 0)
        with pytest.raises(ExecutionError, match="not bound"):
            _ = op.output_info
        with pytest.raises(ExecutionError, match="not bound"):
            _ = op.input_infos

    def test_invalid_port(self):
        op = FilterOperator("f", col("x") > 0)
        op.bind((self.info(),))
        with pytest.raises(ExecutionError, match="invalid port"):
            op.on_message(3, self.message())

    def test_message_after_eof_rejected(self):
        op = FilterOperator("f", col("x") > 0)
        op.bind((self.info(),))
        op.on_eof(0)
        with pytest.raises(ExecutionError, match="closed port"):
            op.on_message(0, self.message())

    def test_duplicate_eof_rejected(self):
        op = FilterOperator("f", col("x") > 0)
        op.bind((self.info(),))
        op.on_eof(0)
        with pytest.raises(ExecutionError, match="duplicate EOF"):
            op.on_eof(0)

    def test_source_rejects_messages(self, catalog):
        op = ReadOperator(catalog.table("sales"))
        op.bind(())
        with pytest.raises(ExecutionError, match="invalid port"):
            op.on_message(0, self.message())

    def test_source_stream_not_implemented(self):
        class Stub(SourceOperator):
            def _derive_info(self, inputs):
                return None

        with pytest.raises(NotImplementedError):
            Stub("s").stream()

    def test_progress_merges_across_messages(self):
        op = FilterOperator("f", col("x") > 0)
        op.bind((self.info(),))
        op.on_message(0, self.message())
        second = Message(
            frame=DataFrame({"x": np.array([2.0])}),
            progress=Progress(done={"t": 2}, total={"t": 2}),
        )
        op.on_message(0, second)
        assert op.progress.is_complete


class TestMapPartitionsContract:
    def test_schema_probe_on_empty(self, catalog):
        def project(frame):
            return frame.select(["qty"])

        op = MapPartitionsOperator("m", project)
        info = StreamInfo(
            catalog.table("sales").schema, delivery=Delivery.DELTA
        )
        out = op.bind((info,))
        assert out.schema.names == ("qty",)

    def test_declared_schema_wins(self, catalog):
        declared = Schema([Field("okey", DType.INT64)])

        def bad_probe(frame):
            raise AssertionError("must not be called")

        op = MapPartitionsOperator("m", bad_probe, schema=declared)
        info = StreamInfo(
            catalog.table("sales").schema, delivery=Delivery.DELTA
        )
        assert op.bind((info,)).schema == declared

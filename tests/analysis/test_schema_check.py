"""Build-time plan validation: every malformed-plan class raises a
structured :class:`PlanValidationError` from the API call that built the
node, before any partition is read, from the same per-operator
derivation ``bind`` uses."""

import json
import socket

import pytest

from repro import ExecutionOptions, F, WakeContext, col
from repro.analysis import infer_plan, plan_fingerprint
from repro.engine.graph import QueryGraph
from repro.errors import PlanValidationError, QueryError
from repro.service import QueryService, ServiceClient, SnapshotServer
from repro.storage.catalog import TableMeta


@pytest.fixture
def ctx(catalog):
    return WakeContext(catalog)


@pytest.fixture
def no_reads(monkeypatch):
    """Any partition read fails the test: validation must come first."""

    def _boom(self, *args, **kwargs):
        raise AssertionError(
            "partition read before plan validation"
        )

    monkeypatch.setattr(TableMeta, "read_partition", _boom)


def _submit(ctx, frame):
    """The submit chokepoint shared by run/stream/serve."""
    return ctx.executor_for(frame)


class TestValidationErrors:
    def test_undefined_column(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").filter(col("nope") > 1)
            _submit(ctx, frame)
        assert info.value.code == "undefined-column"
        assert info.value.column == "nope"
        assert info.value.node is not None

    def test_undefined_column_in_projection(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").select(twice=col("missing") * 2)
            _submit(ctx, frame)
        assert info.value.code == "undefined-column"
        assert info.value.column == "missing"

    def test_type_mismatched_comparison(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").filter(col("qty") > "forty")
            _submit(ctx, frame)
        assert info.value.code == "type-mismatch"

    def test_string_arithmetic(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").select(bad=col("cust") + 1)
            _submit(ctx, frame)
        assert info.value.code == "type-mismatch"

    def test_non_boolean_filter_predicate(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").filter(col("qty") + 1)
            _submit(ctx, frame)
        assert info.value.code == "type-mismatch"

    def test_non_numeric_agg_input(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").agg(
                F.sum("cust").alias("s"), by=["okey"]
            )
            _submit(ctx, frame)
        assert info.value.code == "non-numeric-agg"
        assert info.value.column == "cust"

    def test_count_on_string_is_fine(self, ctx):
        frame = ctx.table("sales").agg(
            F.count_distinct("cust").alias("n"), by=["okey"]
        )
        _submit(ctx, frame)

    def test_duplicate_output_name(self, ctx, no_reads):
        left = ctx.table("sales").select(
            okey=col("okey"), qty=col("qty"), qty_right=col("qty")
        )
        with pytest.raises(PlanValidationError) as info:
            frame = left.join(ctx.table("sales"),
                              on=[("okey", "okey")])
            _submit(ctx, frame)
        assert info.value.code == "duplicate-output"

    def test_delivery_misuse_group_by_mutable(self, ctx, no_reads):
        # The aggregate's own output column is REPLACE/MUTABLE; keying
        # a second aggregate on it is the paper's blocking case (§3.3).
        inner = ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["cust"]
        )
        with pytest.raises(PlanValidationError) as info:
            frame = inner.agg(F.count(None).alias("n"), by=["s"])
            _submit(ctx, frame)
        assert info.value.code == "delivery-misuse"

    def test_error_is_a_query_error(self, ctx, no_reads):
        with pytest.raises(QueryError):
            frame = ctx.table("sales").filter(col("nope") > 1)
            _submit(ctx, frame)

    def test_to_dict_is_structured(self, ctx, no_reads):
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").filter(col("nope") > 1)
            _submit(ctx, frame)
        detail = info.value.to_dict()
        assert detail["code"] == "undefined-column"
        assert detail["column"] == "nope"
        assert detail["node"] is not None
        assert detail["operator"]
        assert "nope" in detail["message"]

    def test_validate_false_escape_hatch(self, catalog, no_reads):
        ctx = WakeContext(catalog,
                          options=ExecutionOptions(validate=False))
        # ``validate`` is accepted and inert: the node's one derivation,
        # when it is built, is the validation, so the plan is still
        # rejected with the same coded error, before any partition is
        # read.
        with pytest.raises(PlanValidationError) as info:
            frame = ctx.table("sales").filter(col("nope") > 1)
            ctx.run(frame)
        assert info.value.code == "undefined-column"


class TestUnboundWalk:
    def _plans(self, ctx):
        sales = ctx.table("sales")
        customers = ctx.table("customers")
        return [
            sales.filter(col("qty") > 10.0),
            sales.select(okey=col("okey"),
                         double=col("qty") * 2),
            sales.agg(F.sum("qty").alias("s"),
                      F.avg("qty").alias("m"), by=["okey"]),
            sales.agg(F.count(None).alias("n"), by=["cust"]),
            sales.join(customers, on=[("cust", "ckey")]),
            sales.sort("qty", desc=True).limit(5),
            sales.distinct("cust"),
        ]

    def test_fingerprint_is_deterministic(self, ctx):
        frame = self._plans(ctx)[2]
        graph = QueryGraph()
        output = frame.plan.materialize(graph, {}, ctx.options)
        assert plan_fingerprint(graph, output) == plan_fingerprint(
            graph, output
        )

    def test_validate_plan_returns_streams(self, ctx):
        frame = self._plans(ctx)[0]
        graph = QueryGraph()
        output = frame.plan.materialize(graph, {}, ctx.options)
        streams = infer_plan(graph, output)
        assert streams[output] is not None
        names = [f.name for f in streams[output].schema.fields]
        assert names == ["okey", "qty", "cust", "region"]


class TestExplainTypes:
    def test_types_mode_lists_schemas(self, ctx):
        frame = ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["okey"]
        )
        text = ctx.explain(frame, mode="types")
        assert "s: float64" in text
        assert "okey: int64" in text
        assert "delivery=" in text

    def test_unknown_mode_rejected(self, ctx):
        frame = ctx.table("sales")
        with pytest.raises(QueryError):
            ctx.explain(frame, mode="nope")


class TestWireValidation:
    """A malformed submit over NDJSON/TCP returns a structured error
    reply, not a failed session or a dropped connection."""

    @pytest.fixture
    def server(self, catalog):
        ctx = WakeContext(catalog)
        plans = {
            "good": lambda c, **p: c.table("sales").sum("qty"),
            "bad-column": lambda c, **p: c.table("sales").filter(
                col("nope") > 1
            ),
            "bad-agg": lambda c, **p: c.table("sales").agg(
                F.sum("cust").alias("s")
            ),
        }
        service = QueryService(ctx, plans=plans)
        server = SnapshotServer(service, port=0).start()
        yield server
        server.stop()

    def _raw_submit(self, server, query):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            file = sock.makefile("rwb")
            file.write(
                (json.dumps({"op": "submit", "query": query}) + "\n")
                .encode()
            )
            file.flush()
            return json.loads(file.readline())

    def test_structured_error_reply(self, server, no_reads):
        reply = self._raw_submit(server, "bad-column")
        assert reply["ok"] is False
        assert reply["detail"]["code"] == "undefined-column"
        assert reply["detail"]["column"] == "nope"
        assert reply["detail"]["node"] is not None
        assert "nope" in reply["error"]

    def test_agg_error_reply(self, server, no_reads):
        reply = self._raw_submit(server, "bad-agg")
        assert reply["ok"] is False
        assert reply["detail"]["code"] == "non-numeric-agg"

    def test_connection_survives_and_serves_next_query(self, server):
        # One rejected submit must not poison the service: the same
        # server still executes a valid plan end to end.
        reply = self._raw_submit(server, "bad-column")
        assert reply["ok"] is False
        with ServiceClient(port=server.port, timeout=30) as client:
            session = client.submit("good")
            events = list(client.subscribe(session))
            assert events[-1]["event"] == "end"
            assert events[-1]["state"] == "done"

    def test_no_session_created_for_malformed_plan(self, server):
        self._raw_submit(server, "bad-column")
        with ServiceClient(port=server.port, timeout=30) as client:
            status = client.status()
            assert status["sessions"] == []

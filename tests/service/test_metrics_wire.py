"""Wire-level tests for the observability surface: the ``metrics`` and
``trace`` NDJSON ops, the Prometheus ``GET /metrics`` responder, and
the always-on buffer-health fields in ``status`` replies."""

import json
import socket

import pytest

from repro import ExecutionOptions, F, WakeContext
from repro.errors import ServiceError
from repro.service import QueryService, ServiceClient, SnapshotServer

TELEMETRY = ExecutionOptions(telemetry=True)


def _plans():
    return {
        "sum_by_cust": lambda ctx, **p: ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["cust"]
        ),
        "total": lambda ctx, **p: ctx.table("sales").sum("qty"),
    }


@pytest.fixture
def server(catalog):
    ctx = WakeContext(catalog)
    service = QueryService(ctx, plans=_plans(), options=TELEMETRY)
    server = SnapshotServer(service, port=0).start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port, timeout=30) as client:
        yield client


@pytest.fixture
def dark_server(catalog):
    """A server with telemetry off (the default)."""
    ctx = WakeContext(catalog)
    service = QueryService(ctx, plans=_plans())
    server = SnapshotServer(service, port=0).start()
    yield server
    server.stop()


def _run_to_end(client, name):
    session = client.submit(name)
    for event in client.subscribe(session):
        if event.get("event") == "end":
            assert event["state"] == "done"
    return session


def _raw_request(port, payload):
    """One request over a raw socket — proves the wire format without
    the client's helpers."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30) as sock:
        stream = sock.makefile("rwb")
        stream.write((json.dumps(payload) + "\n").encode())
        stream.flush()
        return json.loads(stream.readline())


class TestMetricsOp:
    def test_raw_socket_metrics_reply(self, server, client):
        _run_to_end(client, "total")
        reply = _raw_request(server.port, {"op": "metrics"})
        assert reply["ok"] is True
        assert reply["enabled"] is True
        # Every counter the acceptance bar names, present and sane.
        assert reply["steps_total"] >= 1
        assert reply["steps_per_second"] > 0
        assert reply["partitions_read_total"] >= 1
        assert reply["partitions_pruned_total"] >= 0
        assert reply["partitions_quarantined_total"] == 0
        assert reply["retries_total"] == 0
        assert reply["backoff_seconds_total"] == 0
        assert reply["scan_rows_total"] == 60
        assert reply["scan_bytes_total"] > 0
        assert reply["snapshots_published_total"] >= 1
        assert reply["buffer_drops_total"] == 0
        assert reply["cache"]["hits"] == 0
        assert "physical_reads" in reply["scan_share"]
        assert "hits" in reply["cache"]
        assert reply["run_queue_depth"] == 0
        assert reply["uptime_seconds"] > 0

    def test_per_session_lag_and_series(self, server, client):
        session = _run_to_end(client, "total")
        reply = client.metrics()
        per_session = reply["sessions"][str(session)]
        assert per_session["state"] == "done"
        assert per_session["steps"] >= 1
        # The subscriber consumed every snapshot, so lag was measured.
        assert per_session["snapshot_lag_seconds"] >= 0
        assert per_session["subscribers"] == 1
        assert per_session["snapshots"] == reply[
            "snapshots_published_total"]
        # The full labeled series dump rides along.
        assert "repro_steps_total" in reply["series"]
        lag = reply["series"]["repro_session_snapshot_lag_seconds"]
        assert any(
            s["labels"].get("session") == str(session)
            for s in lag["samples"]
        )

    def test_result_cache_attach_counted(self, server, client):
        first = client.submit("total", result_cache=True)
        for event in client.subscribe(first):
            if event.get("event") == "end":
                assert event["state"] == "done"
        second = client.submit("total", result_cache=True)
        assert second.cache_hit is True
        reply = client.metrics()
        assert reply["cache"]["hits"] == 1

    def test_prometheus_format_over_ndjson(self, server, client):
        _run_to_end(client, "total")
        reply = client.metrics(format="prometheus")
        text = reply["prometheus"]
        assert "# TYPE repro_steps_total counter" in text
        assert "# TYPE repro_step_seconds histogram" in text
        assert "repro_step_seconds_bucket" in text
        assert "repro_scan_rows_total 60" in text

    def test_unknown_format_rejected(self, server, client):
        with pytest.raises(ServiceError, match="format"):
            client.metrics(format="xml")

    def test_retry_and_backoff_counters_fire(self, catalog):
        from repro.service import RetryPolicy
        from repro.testing import FaultInjector

        injector = FaultInjector()
        injector.plan_fault("sales", 0, times=1)
        ctx = WakeContext(injector.wrap_catalog(catalog))
        retry = RetryPolicy(max_attempts=3, backoff_base=0.001,
                            backoff_max=0.002)
        service = QueryService(ctx, plans=_plans(), retry=retry,
                               options=TELEMETRY)
        server = SnapshotServer(service, port=0).start()
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                _run_to_end(client, "total")
                reply = client.metrics()
                assert reply["retries_total"] == 1
                assert reply["backoff_seconds_total"] > 0
        finally:
            server.stop()


class TestBufferHealth:
    def test_status_reports_buffer_health_without_telemetry(
        self, dark_server
    ):
        with ServiceClient(port=dark_server.port,
                           timeout=30) as client:
            session = _run_to_end(client, "total")
            buffer = client.status(session)["buffer"]
            assert buffer == {"subscribers": 1,
                              "snapshot_lag_seconds": None}

    def test_cache_and_scan_share_live_on_the_metrics_op_only(
        self, server, client
    ):
        """The session-less ``status`` reply lists sessions; the cache
        and scan-share counters are the ``metrics`` op's."""
        _run_to_end(client, "total")
        assert set(client.status()) == {"ok", "sessions"}
        reply = client.metrics()
        assert {"hits", "misses"} <= set(reply["cache"])
        assert "physical_reads" in reply["scan_share"]


class TestTraceOp:
    def test_trace_for_one_session(self, server, client):
        session = _run_to_end(client, "total")
        reply = _raw_request(server.port,
                             {"op": "trace", "session": str(session)})
        assert reply["ok"] is True
        trace = reply["trace"]
        assert trace["session"] == str(session)
        assert trace["plan_hash"]
        assert trace["steps_total"] >= 1
        assert trace["publishes_total"] >= 1
        names = [c["name"] for c in trace["spans"]["children"]]
        assert "submit" in names
        submit = trace["spans"]["children"][names.index("submit")]
        inner = [c["name"] for c in submit["children"]]
        assert "build" in inner
        assert "optimize" in inner

    def test_trace_listing(self, server, client):
        _run_to_end(client, "total")
        reply = client.trace()
        assert any(t["name"] == "total" for t in reply["traces"])

    def test_unknown_session_trace_rejected(self, server, client):
        with pytest.raises(ServiceError, match="no trace"):
            client.trace(session="s999")


class TestDisabledTelemetry:
    def test_metrics_op_still_answers_always_on_section(
        self, dark_server
    ):
        with ServiceClient(port=dark_server.port,
                           timeout=30) as client:
            session = _run_to_end(client, "total")
            reply = client.metrics()
            assert reply["enabled"] is False
            # Always-on counters survive without a registry.
            assert "cache" in reply and "scan_share" in reply
            assert reply["sessions"][str(session)]["steps"] >= 1
            # Telemetry-only fields are absent, not zero-faked.
            assert "steps_total" not in reply
            assert "series" not in reply

    def test_prometheus_rejected_when_disabled(self, dark_server):
        with ServiceClient(port=dark_server.port,
                           timeout=30) as client:
            with pytest.raises(ServiceError, match="telemetry"):
                client.metrics(format="prometheus")

    def test_trace_rejected_when_disabled(self, dark_server):
        with ServiceClient(port=dark_server.port,
                           timeout=30) as client:
            with pytest.raises(ServiceError, match="telemetry"):
                client.trace()


def _http_get(port, path):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body.decode()


class TestHttpScrape:
    def test_get_metrics_serves_prometheus_text(self, server, client):
        _run_to_end(client, "total")
        status, body = _http_get(server.port, "/metrics")
        assert status == "HTTP/1.0 200 OK"
        assert "# TYPE repro_steps_total counter" in body
        assert "repro_scan_rows_total 60" in body

    def test_get_unknown_path_404(self, server):
        status, _ = _http_get(server.port, "/nope")
        assert "404" in status

    def test_get_metrics_503_when_disabled(self, dark_server):
        status, body = _http_get(dark_server.port, "/metrics")
        assert "503" in status
        assert "telemetry disabled" in body

    def test_ndjson_still_works_after_http_requests(self, server,
                                                    client):
        _http_get(server.port, "/metrics")
        reply = _raw_request(server.port, {"op": "metrics"})
        assert reply["ok"] is True

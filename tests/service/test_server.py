"""Server smoke tests: the NDJSON wire protocol over a real socket."""

import json
import socket

import pytest

from repro import F, WakeContext, col
from repro.errors import ServiceError
from repro.service import QueryService, ServiceClient, SnapshotServer


def _plans():
    return {
        "sum_by_cust": lambda ctx, **p: ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["cust"]
        ),
        "total": lambda ctx, **p: ctx.table("sales").sum("qty"),
        "filtered": lambda ctx, threshold=30: (
            ctx.table("sales").filter(col("qty") > threshold)
            .agg(F.count(None).alias("n"))
        ),
    }


@pytest.fixture
def server(catalog):
    ctx = WakeContext(catalog)
    service = QueryService(ctx, plans=_plans())
    server = SnapshotServer(service, port=0).start()
    yield server
    server.stop()


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port, timeout=30) as client:
        yield client


class TestSubmitSubscribe:
    def test_submit_subscribe_to_final(self, server, client, catalog):
        session = client.submit("sum_by_cust")
        events = list(client.subscribe(session))
        assert events[-1]["event"] == "end"
        assert events[-1]["state"] == "done"
        snapshots = [e for e in events if e["event"] == "snapshot"]
        assert snapshots, "no snapshots streamed"
        assert snapshots[-1]["final"] is True
        ts = [e["t"] for e in snapshots]
        assert ts == sorted(ts)
        # the streamed final matches a direct local run byte-for-byte
        ctx = WakeContext(catalog)
        expected = ctx.run(_plans()["sum_by_cust"](ctx)).get_final()
        final_cols = snapshots[-1]["columns"]
        assert final_cols["cust"] == expected.column("cust").tolist()
        assert final_cols["s"] == pytest.approx(
            expected.column("s").tolist())

    def test_params_and_priority_accepted(self, server, client):
        session = client.submit("filtered", params={"threshold": 45},
                                priority=2.5)
        events = list(client.subscribe(session))
        assert events[-1]["state"] == "done"
        status = client.status(session)
        assert status["priority"] == 2.5

    def test_subscribe_without_frames(self, server, client):
        session = client.submit("total")
        events = list(client.subscribe(session, include_frame=False))
        snapshots = [e for e in events if e["event"] == "snapshot"]
        assert snapshots and all("columns" not in e for e in snapshots)

    def test_late_subscriber_replays_full_refinement(self, server,
                                                     client):
        session = client.submit("sum_by_cust")
        first = list(client.subscribe(session))  # runs to completion
        again = list(client.subscribe(session))  # replay after DONE
        assert [e.get("sequence") for e in again] == \
            [e.get("sequence") for e in first]

    def test_status_lists_sessions(self, server, client):
        a = client.submit("total")
        b = client.submit("sum_by_cust")
        listing = client.status()
        ids = {s["session"] for s in listing["sessions"]}
        assert {a, b} <= ids


class TestControlOps:
    def test_pause_resume_cancel_lifecycle(self, server, catalog):
        with ServiceClient(port=server.port, timeout=30) as control:
            # pause immediately: the scheduler may or may not have
            # stepped yet, but after the ack no further steps run
            session = control.submit("sum_by_cust", priority=0.001)
            state = control.pause(session)
            assert state in ("paused", "done")
            if state == "paused":
                assert control.resume(session) in ("running",
                                                   "submitted")
            events = list(control.subscribe(session))
            assert events[-1]["state"] == "done"

    def test_paused_submit_runs_only_after_resume(self, server,
                                                  catalog):
        with ServiceClient(port=server.port, timeout=30) as control:
            session = control.submit("sum_by_cust", paused=True)
            assert control.status(session)["state"] == "paused"
            assert control.status(session)["steps"] == 0
            assert control.resume(session) == "submitted"
            events = list(control.subscribe(session))
            assert events[-1]["state"] == "done"

    def test_cancel_ends_subscription(self, server, catalog):
        with ServiceClient(port=server.port, timeout=30) as control:
            # paused submission: the query cannot finish (or even
            # start) before the cancel lands — deterministic
            session = control.submit("sum_by_cust", paused=True)
            with ServiceClient(port=server.port, timeout=30) as sub:
                stream = sub.subscribe(session)
                assert control.cancel(session) == "cancelled"
                events = list(stream)
                assert events[-1]["event"] == "end"
                assert events[-1]["state"] == "cancelled"
            assert control.status(session)["state"] == "cancelled"

    def test_cancelled_session_releases_executor(self, server, catalog):
        with ServiceClient(port=server.port, timeout=30) as control:
            session = control.submit("sum_by_cust", paused=True)
            control.cancel(session)
            live = server.service.scheduler.get(session)
            assert live.executor.closed
            assert live.executor.graph is None


class TestPrune:
    def test_prune_drops_finished_sessions(self, server, client):
        a = client.submit("total")
        b = client.submit("sum_by_cust")
        list(client.subscribe(a))
        list(client.subscribe(b))  # both DONE
        removed = client.prune(keep_latest=1)
        assert len(removed) == 1
        remaining = {s["session"]
                     for s in client.status()["sessions"]}
        assert len(remaining) == 1
        with pytest.raises(ServiceError, match="no session"):
            client.status(removed[0])

    def test_prune_never_touches_running_sessions(self, server,
                                                  client):
        session = client.submit("sum_by_cust", paused=True)
        assert client.prune() == []
        assert client.status(session)["state"] == "paused"
        client.cancel(session)


class TestProtocolErrors:
    def test_bad_field_types_get_error_reply(self, server, client):
        """Untrusted wire fields must produce an error reply, not kill
        the connection."""
        with pytest.raises(ServiceError):
            client.submit("total", priority="high")
        with pytest.raises(ServiceError):
            client.submit("filtered", params={"no_such_param": 1})
        # the connection survives both
        assert client.status()["ok"] is True

    @pytest.mark.parametrize("priority", [
        b"NaN", b"Infinity", b"-Infinity", b'"nan"', b'"inf"',
    ])
    def test_non_finite_priority_gets_error_reply(self, server,
                                                  priority):
        """``json.loads`` accepts the NaN/Infinity tokens and
        ``float()`` the strings; none may reach the scheduler."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"op": "submit", "query": "total", '
                       b'"priority": ' + priority + b'}\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            assert "priority must be finite and > 0" in reply["error"]
            file.write(b'{"op": "status"}\n')
            file.flush()
            status = json.loads(file.readline())
            assert status["ok"] is True
            assert status["sessions"] == []

    def test_unknown_submit_field_gets_error_reply(self, server):
        """A field ``submit`` does not know is an error, not silently
        dropped; the connection stays usable."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"op": "submit", "query": "total", '
                       b'"parallelism": 4}\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply == {
                "ok": False,
                "error": "submit has no field parallelism; valid "
                         "fields: op, query, params, priority, pushdown, "
                         "name, paused, scan_share, result_cache",
            }
            file.write(b'{"op": "submit", "query": "total"}\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is True
            assert reply["session"]

    @pytest.mark.parametrize("field, value", [
        ("paused", b'"false"'),
        ("pushdown", b'"false"'),
        ("result_cache", b'"yes"'),
        ("scan_share", b"1"),
    ])
    def test_non_boolean_submit_flag_gets_error_reply(self, server,
                                                      field, value):
        """A boolean submit field takes JSON true/false only: the
        string ``"false"`` is truthy and must not be obeyed as true.
        Nothing is registered and the connection stays usable."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"op": "submit", "query": "total", "'
                       + field.encode() + b'": ' + value + b'}\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            assert f"{field} must be a boolean" in reply["error"]
            file.write(b'{"op": "status"}\n')
            file.flush()
            status = json.loads(file.readline())
            assert status["ok"] is True
            assert status["sessions"] == []

    def test_non_boolean_include_frame_gets_error_reply(self, server):
        """``include_frame: 0`` is rejected before the subscribe ack,
        so no stream starts and the connection stays usable."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"op": "submit", "query": "total"}\n')
            file.flush()
            session = json.loads(file.readline())["session"]
            file.write(json.dumps({"op": "subscribe", "session": session,
                                   "include_frame": 0}).encode() + b"\n")
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            assert "include_frame must be a boolean" in reply["error"]
            file.write(b'{"op": "status"}\n')
            file.flush()
            status = json.loads(file.readline())
            assert status["ok"] is True
            assert [s["session"] for s in status["sessions"]] == [session]

    def test_unknown_tpch_param_names_the_valid_ones(self, tpch):
        """The default registry's submit error is the CLI's one line."""
        catalog, _tables = tpch
        server = SnapshotServer(
            QueryService(WakeContext(catalog)), port=0).start()
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                with pytest.raises(
                    ServiceError,
                    match="q06 has no parameter bogus; valid "
                          "parameters: discount, quantity, start, years",
                ):
                    client.submit("q06", params={"bogus": 1})
                assert client.status()["ok"] is True
        finally:
            server.stop()

    def test_unknown_query(self, server, client):
        with pytest.raises(ServiceError, match="unknown query"):
            client.submit("nope")

    def test_unknown_session(self, server, client):
        with pytest.raises(ServiceError, match="no session"):
            client.status("s999")

    def test_unknown_op_and_bad_json(self, server):
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            file = sock.makefile("rwb")
            file.write(b'{"op": "frobnicate"}\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            assert "unknown op" in reply["error"]
            file.write(b'this is not json\n')
            file.flush()
            reply = json.loads(file.readline())
            assert reply["ok"] is False
            # the connection survives both errors
            file.write(b'{"op": "status"}\n')
            file.flush()
            assert json.loads(file.readline())["ok"] is True

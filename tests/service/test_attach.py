"""Result-cache attach semantics: an identical submit replays an
in-flight (or retained) session instead of re-executing.

Scheduler-level tests drive ``QueryService.submit`` +
``scheduler.run_once`` by hand (the scheduler thread is never started),
so exactly how many steps ran before each attach is deterministic.
Wire-level tests cover the same surface through
``ServiceClient``/:class:`SessionHandle` over a real socket.
"""

import json
import socket
import threading

import pytest

from repro import ExecutionOptions, F, WakeContext, col
from repro.service import (
    AttachedSession,
    QueryService,
    QuerySession,
    ServiceClient,
    SessionHandle,
    SessionState,
    SnapshotServer,
)
from repro.testing.faults import FaultInjector


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
        "select_ab": lambda ctx, **p: ctx.table("sales").select(
            a=col("qty") * 2.0, b="region"
        ),
        "select_ba": lambda ctx, **p: ctx.table("sales").select(
            b="region", a=col("qty") * 2.0
        ),
    }


def _service(catalog, **service_kwargs):
    ctx = WakeContext(catalog)
    return QueryService(
        ctx, plans=_plans(),
        options=ExecutionOptions(result_cache=True),
        **service_kwargs,
    )


def drain(session):
    """Every snapshot in the session's buffer (never blocks: only used
    once the session is terminal)."""
    assert session.terminal
    return list(iter(session.subscribe()))


def _two_scan_plan(ctx, **p):
    """Two scans of one table: each group's share of the total."""
    return ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"]) \
        .cross_join(ctx.table("sales").agg(F.sum("qty").alias("total")))


class TestScanLabels:
    def test_repeated_submits_keep_the_solo_labels(self, catalog):
        """Scans are labelled per plan, so the third submit through one
        service reports the progress keys of a fresh-context run."""
        service = QueryService(WakeContext(catalog),
                               plans={"shares": _two_scan_plan})
        sessions = [service.submit("shares") for _ in range(3)]
        service.scheduler.run_until_idle()
        ctx = WakeContext(catalog)
        solo = [sorted(s.progress.done)
                for s in ctx.run(_two_scan_plan(ctx)).snapshots]
        assert solo[0] == ["sales", "sales@2"]
        for session in sessions:
            assert [sorted(s.progress.done)
                    for s in drain(session)] == solo

    def test_source_name_joins_the_plan_hash(self, catalog):
        """Snapshots key progress by source label, so plans that differ
        only in ``source_name`` are different results: no attach."""
        plans = {
            side: (lambda ctx, side=side, **p: ctx.table(
                "sales", source_name=side).sum("qty"))
            for side in ("left", "right")
        }
        service = QueryService(WakeContext(catalog), plans=plans,
                               options=ExecutionOptions(result_cache=True))
        left = service.submit("left")
        right = service.submit("right")
        assert isinstance(right, QuerySession)
        assert left.plan_hash != right.plan_hash
        service.scheduler.run_until_idle()
        for session, label in ((left, "left"), (right, "right")):
            assert all(list(s.progress.done) == [label]
                       for s in drain(session))


class TestAttach:
    def test_midflight_attach_replays_prefix(self, catalog):
        service = _service(catalog)
        primary = service.submit("sum_by_cust")
        assert isinstance(primary, QuerySession)
        for _ in range(3):
            service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        assert isinstance(attached, AttachedSession)
        assert attached.primary is primary
        # The already-produced prefix was seeded at attach time ...
        assert attached.buffer.retained() == primary.buffer.retained()
        while service.scheduler.run_once() is not None:
            pass
        assert primary.state is SessionState.DONE
        assert attached.state is SessionState.DONE
        # ... and the full replay is the *same* snapshot objects, in
        # order — byte-identical by construction.
        got, expected = drain(attached), drain(primary)
        assert len(got) == len(expected) > 0
        assert all(a is b for a, b in zip(got, expected))
        assert got[-1].is_final

    def test_one_snapshot_list_per_query(self, catalog):
        """Primary and hit both serve the executor's own edf objects."""
        service = _service(catalog)
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        while service.scheduler.run_once() is not None:
            pass
        edf = primary.executor.edf
        for session in (primary, attached):
            retained = session.buffer.retained()
            assert len(retained) == len(edf) > 0
            assert all(retained[i] is edf.snapshot(i)
                       for i in range(len(edf)))

    def test_attach_after_done_replays_everything(self, catalog):
        service = _service(catalog)
        primary = service.submit("total")
        while service.scheduler.run_once() is not None:
            pass
        attached = service.submit("total")
        assert isinstance(attached, AttachedSession)
        assert attached.state is SessionState.DONE
        assert all(a is b for a, b in
                   zip(drain(attached), drain(primary)))
        # The cold submit is the one miss; the duplicate is the hit.
        assert service.cache_stats() == {
            "hits": 1, "misses": 1, "entries": 1,
        }

    def test_status_reports_attach_provenance(self, catalog):
        service = _service(catalog)
        primary = service.submit("total")
        while service.scheduler.run_once() is not None:
            pass
        attached = service.submit("total")
        status = attached.status()
        assert status["cache_hit"] is True
        assert status["attached_to"] == primary.session_id
        assert status["steps"] == primary.steps
        assert status["snapshots"] == len(primary.buffer)
        assert primary.status()["cache_hit"] is False

    def test_different_params_do_not_attach(self, catalog):
        service = _service(catalog)
        a = service.submit("filtered", params={"threshold": 30})
        b = service.submit("filtered", params={"threshold": 45})
        assert isinstance(b, QuerySession)
        assert a.plan_hash != b.plan_hash

    def test_different_pushdown_does_not_attach(self, catalog):
        service = _service(catalog)
        a = service.submit("sum_by_cust")
        b = service.submit(
            "sum_by_cust",
            options=service.options.merged(pushdown=False),
        )
        assert isinstance(b, QuerySession)
        assert a.plan_hash != b.plan_hash

    def test_select_order_does_not_attach(self, catalog):
        """The same outputs in another order are another result: each
        plan gets its own session, byte-identical to its solo run."""
        service = _service(catalog)
        ab = service.submit("select_ab")
        ba = service.submit("select_ba")
        assert isinstance(ba, QuerySession)
        assert ab.plan_hash != ba.plan_hash
        while service.scheduler.run_once() is not None:
            pass
        for name, session in (("select_ab", ab), ("select_ba", ba)):
            ctx = WakeContext(catalog)
            solo = ctx.run(_plans()[name](ctx)).snapshots
            got = drain(session)
            assert len(got) == len(solo) > 0
            for a, b in zip(got, solo):
                assert a.frame.column_names == b.frame.column_names
                for column in b.frame.column_names:
                    assert (a.frame.column(column).tobytes()
                            == b.frame.column(column).tobytes())

    def test_distinct_plans_never_collide(self, catalog):
        service = _service(catalog)
        service.submit("total")
        other = service.submit("sum_by_cust")
        assert isinstance(other, QuerySession)
        assert service.cache_stats()["entries"] == 2


class TestLifecycle:
    def test_cancel_on_attached_detaches_only(self, catalog):
        service = _service(catalog)
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        other = service.submit("sum_by_cust")
        cut = len(primary.buffer)
        state = service.scheduler.cancel(attached.session_id)
        assert state is SessionState.CANCELLED
        # The primary, the other hit and the cache entry are untouched.
        while service.scheduler.run_once() is not None:
            pass
        assert primary.state is SessionState.DONE
        assert other.state is SessionState.DONE
        assert service.submit("sum_by_cust").status()["cache_hit"]
        # Only the detached hit's stream ends, at the count published
        # when it detached.
        assert len(drain(attached)) == len(attached.buffer) == cut
        assert len(drain(other)) == len(drain(primary)) > cut
        assert attached.error is None

    def test_detach_wakes_a_waiting_subscriber(self, catalog):
        service = _service(catalog)
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        subscription = attached.subscribe(start=len(primary.buffer))
        result = []
        reader = threading.Thread(
            target=lambda: result.append(subscription.next()))
        reader.start()
        service.scheduler.cancel(attached.session_id)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert result == [None] and subscription.finished
        assert not primary.terminal

    def test_primary_cancel_propagates(self, catalog):
        service = _service(catalog)
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        service.scheduler.cancel(primary.session_id)
        assert attached.state is SessionState.CANCELLED
        assert attached.buffer.closed

    def test_primary_failure_propagates_same_error(self, catalog):
        injector = FaultInjector(seed=11)
        injector.plan_fault("sales", 1, "permanent", times=1)
        faulty = injector.wrap_catalog(catalog)
        service = QueryService(
            WakeContext(faulty), plans=_plans(),
            options=ExecutionOptions(result_cache=True),
        )
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        while service.scheduler.run_once() is not None:
            pass
        assert primary.state is SessionState.FAILED
        assert attached.state is SessionState.FAILED
        assert attached.error is primary.error
        assert attached.subscribe().error is primary.error

    def test_failed_primary_error_reaches_the_hit_end_event(
        self, catalog
    ):
        injector = FaultInjector(seed=11)
        injector.plan_fault("sales", 1, "permanent", times=1)
        service = QueryService(
            WakeContext(injector.wrap_catalog(catalog)), plans=_plans(),
            options=ExecutionOptions(result_cache=True),
        )
        primary = service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        service.scheduler.run_until_idle()
        assert primary.state is SessionState.FAILED
        server = SnapshotServer(service, port=0).start()
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                events = list(client.subscribe(attached.session_id))
        finally:
            server.stop()
        end = events[-1]
        assert end["event"] == "end"
        assert end["session"] == attached.session_id
        assert end["state"] == "failed"
        assert end["error"] == repr(primary.error)
        assert [e["sequence"] for e in events[:-1]] == [
            s.sequence for s in primary.buffer.retained()]

    def test_pause_resume_are_noops_on_attached(self, catalog):
        service = _service(catalog)
        service.submit("sum_by_cust")
        service.scheduler.run_once()
        attached = service.submit("sum_by_cust")
        assert service.scheduler.pause(attached.session_id) \
            is SessionState.RUNNING
        assert service.scheduler.resume(attached.session_id) \
            is SessionState.RUNNING

    def test_detach_is_idempotent_after_terminal(self, catalog):
        service = _service(catalog)
        service.submit("total")
        while service.scheduler.run_once() is not None:
            pass
        attached = service.submit("total")
        attached.detach()  # already DONE: stays DONE
        assert attached.state is SessionState.DONE


class TestCacheHygiene:
    def test_cancelled_entry_self_heals(self, catalog):
        service = _service(catalog)
        primary = service.submit("total")
        service.scheduler.cancel(primary.session_id)
        fresh = service.submit("total")
        assert isinstance(fresh, QuerySession)
        assert fresh is not primary
        assert service.cache_stats()["misses"] == 2
        while service.scheduler.run_once() is not None:
            pass
        # The re-primed entry serves the next identical submit.
        assert service.submit("total").status()["cache_hit"]

    def test_pruned_entry_self_heals(self, catalog):
        service = _service(catalog)
        service.submit("total")
        while service.scheduler.run_once() is not None:
            pass
        service.scheduler.prune()
        fresh = service.submit("total")
        assert isinstance(fresh, QuerySession)
        assert service.cache_stats()["misses"] == 2

    def test_paused_submit_bypasses_cache(self, catalog):
        service = _service(catalog)
        primary = service.submit("total")
        while service.scheduler.run_once() is not None:
            pass
        paused = service.submit("total", paused=True)
        assert isinstance(paused, QuerySession)
        assert paused.state is SessionState.PAUSED
        # Bypassed entirely: no hit, no extra miss, no new entry
        # (the one miss is the primary's cold submit).
        assert service.cache_stats() == {
            "hits": 0, "misses": 1, "entries": 1,
        }
        assert (service._result_cache and next(iter(
            service._result_cache.values())) == primary.session_id)

    def test_result_cache_off_never_attaches(self, catalog):
        service = QueryService(WakeContext(catalog), plans=_plans())
        service.submit("total")
        again = service.submit("total")
        assert isinstance(again, QuerySession)
        assert service.cache_stats()["entries"] == 0

    def test_invalidate_cache(self, catalog):
        service = _service(catalog)
        service.submit("total")
        service.submit("sum_by_cust")
        assert service.invalidate_cache() == 2
        assert service.cache_stats()["entries"] == 0
        fresh = service.submit("total")
        assert isinstance(fresh, QuerySession)


class TestWire:
    @pytest.fixture
    def server(self, catalog):
        ctx = WakeContext(catalog)
        service = QueryService(
            ctx, plans=_plans(),
            options=ExecutionOptions(scan_share=True,
                                     result_cache=True),
        )
        server = SnapshotServer(service, port=0).start()
        yield server
        server.stop()

    def test_handle_is_a_string_and_more(self, server):
        with ServiceClient(port=server.port, timeout=30) as client:
            handle = client.submit("total")
            assert isinstance(handle, SessionHandle)
            assert isinstance(handle, str)
            assert handle.cache_hit is False
            # Bare-string call sites keep working.
            assert client.status(str(handle))["session"] == handle
            assert handle in {str(handle)}
            events = list(handle.subscribe())
            assert events[-1]["event"] == "end"
            assert handle.status()["state"] == "done"

    def test_duplicate_submit_attaches_over_the_wire(self, server):
        with ServiceClient(port=server.port, timeout=30) as client:
            first = client.submit("sum_by_cust")
            done = list(first.subscribe(include_frame=True))
            second = client.submit("sum_by_cust")
            assert second.cache_hit is True
            assert second.attached_to == str(first)
            assert second != first  # its own session id
            replay = list(second.subscribe(include_frame=True))
            # The replayed stream differs only in the session id field.
            def norm(events):
                return [
                    {k: v for k, v in e.items()
                     if k not in ("session", "name")}
                    for e in events
                ]
            assert norm(replay) == norm(done)

    def test_late_attach_replays_byte_identically(self, server):
        """A hit submitted after its primary finished streams the same
        NDJSON bytes as the primary, but for its own session id."""

        def raw_stream(session_id):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps({
                    "op": "subscribe", "session": session_id,
                }).encode() + b"\n")
                stream.flush()
                stream.readline()  # the ack
                lines = []
                while True:
                    line = stream.readline()
                    lines.append(line)
                    if json.loads(line)["event"] == "end":
                        return lines

        with ServiceClient(port=server.port, timeout=30) as client:
            first = client.submit("sum_by_cust")
            primary = raw_stream(str(first))
            second = client.submit("sum_by_cust")
            assert second.cache_hit is True
            replay = raw_stream(str(second))
        own = json.dumps(str(second)).encode()
        theirs = json.dumps(str(first)).encode()
        assert len(replay) == len(primary) > 1
        assert [line.replace(own, theirs) for line in replay] == primary

    def test_per_submit_result_cache_override(self, server):
        with ServiceClient(port=server.port, timeout=30) as client:
            first = client.submit("total", result_cache=False)
            list(first.subscribe())
            second = client.submit("total", result_cache=False)
            assert second.cache_hit is False
            assert second != first

    def test_metrics_report_cache_and_scan_share(self, server):
        with ServiceClient(port=server.port, timeout=30) as client:
            first = client.submit("sum_by_cust")
            list(first.subscribe())
            client.submit("sum_by_cust")
            report = client.metrics()
            assert report["cache"]["hits"] == 1
            assert set(report["scan_share"]) >= {
                "physical_reads", "shared_hits",
            }
            listing = client.status()
            by_id = {s["session"]: s for s in listing["sessions"]}
            assert by_id[str(first)]["cache_hit"] is False

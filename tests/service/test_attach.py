"""Result-cache attach semantics: an identical submit replays an
in-flight (or retained) session instead of re-executing.

Scheduler-level tests drive ``QueryService.submit`` +
``scheduler.run_once`` by hand (the scheduler thread is never started),
so exactly how many steps ran before each attach is deterministic.
Wire-level tests cover the same surface through
``ServiceClient``/:class:`SessionHandle` over a real socket.
"""

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
        state = service.scheduler.cancel(attached.session_id)
        assert state is SessionState.CANCELLED
        assert attached not in primary.fanout
        # The primary and the cache entry are untouched.
        while service.scheduler.run_once() is not None:
            pass
        assert primary.state is SessionState.DONE
        assert service.submit("sum_by_cust").status()["cache_hit"]

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
    def test_evicted_prefix_is_a_miss(self, catalog):
        service = _service(catalog, buffer_size=1)
        primary = service.submit("sum_by_cust")
        while service.scheduler.run_once() is not None:
            pass
        assert primary.buffer.evicted
        fresh = service.submit("sum_by_cust")
        # A replay could not be byte-identical, so it re-executes (and
        # the entry is re-primed to the fresh session).
        assert isinstance(fresh, QuerySession)
        stats = service.cache_stats()
        assert stats == {"hits": 0, "misses": 2, "entries": 1}

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

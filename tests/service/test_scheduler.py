"""FairShareScheduler: fairness, priorities, pause/resume/cancel."""

import math
import threading
import time

import pytest

from repro import F, WakeContext
from repro.errors import QueryError
from repro.service import FairShareScheduler, QueryService, SessionState
from repro.service import scheduler as scheduler_mod


def _executor(catalog):
    ctx = WakeContext(catalog)
    plan = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])
    return ctx.executor_for(plan)


def _reference_final(catalog):
    ctx = WakeContext(catalog)
    plan = ctx.table("sales").agg(F.sum("qty").alias("s"), by=["cust"])
    return ctx.run(plan).get_final()


class TestScheduling:
    def test_all_queries_complete(self, catalog):
        scheduler = FairShareScheduler()
        sessions = [
            scheduler.submit(_executor(catalog), name=f"q{i}")
            for i in range(3)
        ]
        scheduler.run_until_idle()
        expected = _reference_final(catalog)
        for session in sessions:
            assert session.state is SessionState.DONE
            final = session.executor.edf.get_final()
            assert final.column("s").tobytes() == \
                expected.column("s").tobytes()

    def test_equal_priorities_interleave_fairly(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog), name="a")
        b = scheduler.submit(_executor(catalog), name="b")
        order = []
        while (s := scheduler.run_once()) is not None:
            order.append(s.session_id)
        # while both run, neither gets two steps in a row
        both_active = order[: 2 * min(a.steps, b.steps)]
        for first, second in zip(both_active, both_active[1:]):
            assert first != second

    def test_priority_weights_step_shares(self, catalog):
        """A priority-3 session gets ~3x the steps of a priority-1 one
        while both are runnable (stride scheduling)."""
        scheduler = FairShareScheduler()
        low = scheduler.submit(_executor(catalog), name="low",
                               priority=1.0)
        high = scheduler.submit(_executor(catalog), name="high",
                                priority=3.0)
        taken = {low.session_id: 0, high.session_id: 0}
        while (s := scheduler.run_once()) is not None:
            if low.terminal or high.terminal:
                break
            taken[s.session_id] += 1
        assert taken[high.session_id] >= 2 * taken[low.session_id]
        scheduler.run_until_idle()
        assert low.state is SessionState.DONE
        assert high.state is SessionState.DONE

    def test_deterministic_interleaving(self, catalog):
        def trace():
            scheduler = FairShareScheduler()
            for i, priority in enumerate([1.0, 2.0, 1.5]):
                scheduler.submit(_executor(catalog), name=f"q{i}",
                                 priority=priority)
            order = []
            while (s := scheduler.run_once()) is not None:
                order.append(s.name)
            return order

        assert trace() == trace()

    @pytest.mark.parametrize("priority", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_non_finite_priority_rejected(self, catalog, priority):
        """A NaN priority would copy its NaN virtual time into the
        scheduler clock, so every later session starts at ``nan``; an
        infinite one has a zero stride and takes nearly every step."""
        plans = {"by_cust": lambda ctx: ctx.table("sales").agg(
            F.sum("qty").alias("s"), by=["cust"])}
        service = QueryService(WakeContext(catalog), plans=plans)
        service.submit("by_cust")
        with pytest.raises(QueryError, match="finite and > 0"):
            service.submit("by_cust", priority=priority)
        assert len(service.scheduler.sessions()) == 1
        service.scheduler.run_once()
        late = service.submit("by_cust")
        assert math.isfinite(late.vtime)
        service.scheduler.run_until_idle()

    def test_unknown_session_raises(self, catalog):
        scheduler = FairShareScheduler()
        with pytest.raises(QueryError):
            scheduler.pause("nope")


class TestPauseResumeCancel:
    def test_pause_stops_stepping(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog), name="a")
        b = scheduler.submit(_executor(catalog), name="b")
        scheduler.run_once()
        scheduler.run_once()
        assert scheduler.pause(a.session_id) is SessionState.PAUSED
        paused_steps = a.steps
        scheduler.run_until_idle()
        assert a.steps == paused_steps
        assert a.state is SessionState.PAUSED
        assert b.state is SessionState.DONE

    def test_resume_completes_with_correct_answer(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog), name="a")
        scheduler.run_once()
        scheduler.pause(a.session_id)
        scheduler.run_until_idle()
        assert a.state is SessionState.PAUSED
        assert scheduler.resume(a.session_id) in (
            SessionState.RUNNING, SessionState.SUBMITTED
        )
        scheduler.run_until_idle()
        assert a.state is SessionState.DONE
        expected = _reference_final(catalog)
        assert (a.executor.edf.get_final().column("s").tobytes()
                == expected.column("s").tobytes())

    def test_resume_noop_on_running(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog))
        assert scheduler.resume(a.session_id) is SessionState.SUBMITTED

    def test_paused_submission_waits_for_resume(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog), paused=True)
        scheduler.run_until_idle()
        assert a.state is SessionState.PAUSED
        assert a.steps == 0
        scheduler.resume(a.session_id)
        scheduler.run_until_idle()
        assert a.state is SessionState.DONE

    def test_cancel_releases_executor_and_seals_buffer(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog), name="a")
        for _ in range(3):
            scheduler.run_once()
        produced = len(a.buffer)
        assert scheduler.cancel(a.session_id) is SessionState.CANCELLED
        assert a.executor.closed
        assert a.executor.graph is None  # operator state released
        assert a.buffer.closed
        scheduler.run_until_idle()
        assert a.steps == 3
        # subscribers still see the snapshots produced before cancel
        assert len(list(a.subscribe())) == produced

    def test_cancel_is_idempotent_and_terminal(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog))
        scheduler.cancel(a.session_id)
        assert scheduler.cancel(a.session_id) is SessionState.CANCELLED
        assert scheduler.resume(a.session_id) is SessionState.CANCELLED

    def test_pause_then_cancel(self, catalog):
        scheduler = FairShareScheduler()
        a = scheduler.submit(_executor(catalog))
        scheduler.run_once()
        scheduler.pause(a.session_id)
        assert scheduler.cancel(a.session_id) is SessionState.CANCELLED


class TestFailure:
    def test_failed_session_records_error(self, catalog):
        ctx = WakeContext(catalog)

        def boom(frame):
            raise RuntimeError("injected service failure")

        plan = ctx.table("sales").map_partitions(
            boom, schema=ctx.table("sales").schema
        )
        scheduler = FairShareScheduler()
        healthy = scheduler.submit(_executor(catalog), name="ok")
        failing = scheduler.submit(ctx.executor_for(plan), name="bad")
        scheduler.run_until_idle()
        assert failing.state is SessionState.FAILED
        assert isinstance(failing.error, RuntimeError)
        assert failing.buffer.closed
        # the failure is isolated: the healthy query still completes
        assert healthy.state is SessionState.DONE


class TestBackgroundThread:
    def test_background_loop_drains_submissions(self, catalog):
        scheduler = FairShareScheduler()
        scheduler.start()
        try:
            sessions = [
                scheduler.submit(_executor(catalog), name=f"q{i}")
                for i in range(3)
            ]
            deadline = time.monotonic() + 10
            while (not all(s.terminal for s in sessions)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert all(s.state is SessionState.DONE for s in sessions)
        finally:
            scheduler.stop()
        assert not any(
            t.name == "wake-scheduler" and t.is_alive()
            for t in threading.enumerate()
        )

    def test_resume_between_idle_check_and_wait_is_not_lost(
        self, catalog, monkeypatch
    ):
        """A resume that lands after ``run_once()`` found nothing but
        before the loop waits notifies nobody; the loop must still see
        the pushed session instead of dozing the whole idle wait."""
        monkeypatch.setattr(scheduler_mod, "_IDLE_WAIT", 5.0)
        scheduler = FairShareScheduler()
        session = scheduler.submit(_executor(catalog), paused=True)
        resumed_at: list[float] = []
        first_step: list[float] = []
        original_ready_in = scheduler.next_ready_in
        original_run_once = scheduler.run_once

        def ready_in():
            # Called by the loop right after run_once() returned None:
            # exactly the window the lost wakeup needs.
            if not resumed_at:
                scheduler.resume(session.session_id)
                resumed_at.append(time.monotonic())
            return original_ready_in()

        def run_once():
            stepped = original_run_once()
            if stepped is not None and not first_step:
                first_step.append(time.monotonic())
            return stepped

        monkeypatch.setattr(scheduler, "next_ready_in", ready_in)
        monkeypatch.setattr(scheduler, "run_once", run_once)
        scheduler.start()
        try:
            deadline = time.monotonic() + 10
            while not first_step and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            scheduler.stop()
        assert resumed_at and first_step
        assert first_step[0] - resumed_at[0] < 1.0
        scheduler.run_until_idle()
        assert session.state is SessionState.DONE

    @pytest.mark.parametrize("attempt", range(5))
    def test_control_call_waits_at_most_one_step(self, catalog, attempt):
        """A control call that starts waiting for the lock during a step
        gets it before the loop starts the next one.  A plain lock let
        the loop take it straight back step after step, so a
        ``subscribe`` waited for the whole query; whether the waiter
        got in first depended on how fast its thread woke, hence the
        repeats."""
        scheduler = FairShareScheduler()
        executor = _executor(catalog)
        session = scheduler.submit(executor, paused=True)
        original_step = executor.step
        callers: list[threading.Thread] = []

        def step():
            if not callers:
                caller = threading.Thread(
                    target=scheduler.pause, args=(session.session_id,))
                callers.append(caller)
                caller.start()
                time.sleep(0.1)  # the caller is now waiting for the lock
            return original_step()

        executor.step = step
        scheduler.start()
        try:
            scheduler.resume(session.session_id)
            deadline = time.monotonic() + 10
            while not callers and time.monotonic() < deadline:
                time.sleep(0.005)
            callers[0].join(10)
            assert session.state is SessionState.PAUSED
            assert session.steps == 1
        finally:
            scheduler.stop()
        scheduler.resume(session.session_id)
        scheduler.run_until_idle()
        assert session.state is SessionState.DONE
        assert (session.executor.edf.get_final().column("s").tobytes()
                == _reference_final(catalog).column("s").tobytes())

"""FairShareScheduler: fairness, priorities, pause/resume/cancel."""

import inspect
import math
import random
import sys
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


class TestSurface:
    @pytest.mark.parametrize("cls", [FairShareScheduler, QueryService])
    def test_no_buffer_size_knob(self, cls):
        """Snapshots live in the executor's edf alone, so there is no
        buffer to bound."""
        assert "buffer_size" not in \
            inspect.signature(cls.__init__).parameters

    def test_get_does_not_wait_for_the_lock(self, catalog):
        """Lookups and load views read the session table without
        waiting: they answer while the loop thread is inside a step."""
        scheduler = FairShareScheduler()
        executor = _executor(catalog)
        in_step, release = threading.Event(), threading.Event()
        original_step = executor.step

        def step():
            in_step.set()
            release.wait(10)
            return original_step()

        executor.step = step
        scheduler.start()
        try:
            session = scheduler.submit(executor)
            assert in_step.wait(10)
            started = time.monotonic()
            assert scheduler.get(session.session_id) is session
            with pytest.raises(QueryError):
                scheduler.get("s999")
            assert scheduler.sessions() == [session]
            assert scheduler.run_queue_depth() == 1
            assert scheduler.vclock_skew() == 0.0
            assert time.monotonic() - started < 1.0
        finally:
            release.set()
            scheduler.stop()


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


class TestCommands:
    def test_control_call_on_the_loop_thread_applies_inline(
        self, catalog
    ):
        """A control call made by the loop thread itself (here from
        inside a step) cannot wait for the loop: it applies at once."""
        scheduler = FairShareScheduler()
        other = scheduler.submit(_executor(catalog), paused=True)
        executor = _executor(catalog)
        seen: list[tuple[SessionState, int]] = []

        def cancel_other(_executor):
            if not seen:
                state = scheduler.cancel(other.session_id)
                seen.append((state, other.steps))

        executor.before_step = cancel_other
        scheduler.start()
        try:
            session = scheduler.submit(executor)
            deadline = time.monotonic() + 10
            while not session.terminal and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            scheduler.stop()
        assert seen == [(SessionState.CANCELLED, 0)]
        assert other.state is SessionState.CANCELLED
        assert session.state is SessionState.DONE

    def test_stop_applies_commands_queued_during_a_step(self, catalog):
        """Commands queued while the loop is inside its last step are
        applied when it stops, so no caller is left blocked; calls made
        after the loop stopped apply inline."""
        scheduler = FairShareScheduler()
        executor = _executor(catalog)
        paused = scheduler.submit(_executor(catalog), paused=True)
        in_step, release = threading.Event(), threading.Event()
        original_step = executor.step

        def step():
            in_step.set()
            release.wait(10)
            return original_step()

        executor.step = step
        scheduler.start()
        session = scheduler.submit(executor)
        assert in_step.wait(10)
        results: dict[str, object] = {}

        def call(key, fn, *args):
            try:
                results[key] = fn(*args)
            except QueryError as exc:
                results[key] = exc

        callers = [
            threading.Thread(target=call, args=args) for args in (
                ("cancel", scheduler.cancel, session.session_id),
                ("resume", scheduler.resume, paused.session_id),
                ("missing", scheduler.pause, "s999"),
                ("submit", scheduler.submit, _executor(catalog)),
                ("prune", scheduler.prune, 0),
            )
        ]
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 10
        while (len(scheduler._commands) < len(callers)
               and time.monotonic() < deadline):
            time.sleep(0.005)
        assert not results  # all waiting for the step boundary
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        release.set()
        stopper.join(10)
        for caller in callers:
            caller.join(10)
        assert not stopper.is_alive()
        assert not any(caller.is_alive() for caller in callers)
        assert results["cancel"] is SessionState.CANCELLED
        assert session.state is SessionState.CANCELLED
        assert session.steps == 1
        assert results["resume"] is SessionState.SUBMITTED
        assert isinstance(results["missing"], QueryError)
        assert results["submit"].state is SessionState.SUBMITTED
        assert results["prune"] == [session.session_id]
        # No loop thread now: a control call applies inline.
        assert scheduler.pause(paused.session_id) is SessionState.PAUSED
        scheduler.run_until_idle()
        assert results["submit"].state is SessionState.DONE

    def test_concurrent_control_calls_and_reads(self, catalog):
        """Stress: four threads submit, pause, resume and cancel while
        the loop steps and a fifth walks the read views, with a tiny
        switch interval.  A second writer or a torn read would surface
        as an exception, a lost session or a wrong final."""
        scheduler = FairShareScheduler()
        sessions: list = []
        errors: list[BaseException] = []
        reading = threading.Event()

        def control(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(15):
                    sessions.append(scheduler.submit(_executor(catalog)))
                    op = rng.choice((scheduler.pause, scheduler.resume,
                                     scheduler.cancel))
                    op(rng.choice(sessions).session_id)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        def read() -> None:
            try:
                while reading.is_set():
                    for session in scheduler.sessions():
                        assert scheduler.get(session.session_id) is session
                    scheduler.run_queue_depth()
                    scheduler.vclock_skew()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        controllers = [threading.Thread(target=control, args=(seed,))
                       for seed in range(4)]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        reading.set()
        scheduler.start()
        try:
            for thread in (*controllers, reader):
                thread.start()
            for thread in controllers:
                thread.join(60)
            reading.clear()
            reader.join(60)
        finally:
            sys.setswitchinterval(interval)
            scheduler.stop()
        assert not any(t.is_alive() for t in (*controllers, reader))
        assert not errors, errors[:3]
        assert scheduler.sessions() == sorted(
            sessions, key=lambda s: int(s.session_id[1:]))
        for session in sessions:
            scheduler.resume(session.session_id)
        scheduler.run_until_idle()
        expected = _reference_final(catalog).column("s").tobytes()
        for session in sessions:
            assert session.state in (SessionState.DONE,
                                     SessionState.CANCELLED)
            if session.state is SessionState.DONE:
                final = session.executor.edf.get_final()
                assert final.column("s").tobytes() == expected

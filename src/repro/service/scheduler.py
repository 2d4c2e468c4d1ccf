"""Cooperative fair-share scheduler over partition-steps.

Stride scheduling: every session carries a virtual time, advanced by
``1/priority`` per executed step, and the scheduler always runs the
runnable session with the smallest virtual time (a min-heap, so picking
is O(log n) per step; stale heap entries from pause/cancel are
lazily discarded via an epoch token, bounding the worst case at
O(active queries)).  A priority-2 query therefore receives twice the
partition-steps per unit time of a priority-1 query while both are
runnable.  Newly submitted and resumed sessions enter at the current
virtual clock, so they neither starve incumbents nor claim a catch-up
burst for time spent paused.

**One writer.**  The scheduler is *cooperative*: one step (one source
partition pushed through one query's graph) is the indivisible quantum,
and one thread writes scheduler state — the heaps, the virtual clock,
the session table and each session's lifecycle: the loop thread once
:meth:`~FairShareScheduler.start` runs it, else whoever drives
:meth:`~FairShareScheduler.run_once`.  A control call (``submit``,
``attach``, ``pause``, ``resume``, ``cancel``, ``prune``) from any other
thread is a *command*, queued with a :class:`~concurrent.futures.Future`
that ``run_once`` settles before it picks the next session: it takes
effect at the next step boundary, and a cancel never races the step it
interrupts.  On the loop thread, or with no loop thread, a command
applies inline; ``stop`` applies what is still queued.  Reads (``get``,
``sessions``, ``run_queue_depth``, ``vclock_skew``) take no lock: the
writer replaces the session table rather than mutating it, so a lookup
never waits out a step, and a new session is visible before its
``submit`` returns.  Subscribers wait on the per-session buffer, so a
slow consumer cannot block execution.

**Fault tolerance.**  With a :class:`~repro.service.retry.RetryPolicy`
attached, a step that raises a *retry-safe transient* error (the
partition read failed, no operator state advanced — see
:attr:`StepExecutor.step_retry_safe`) does not FAIL the session:
the session re-enters at its current virtual clock after a
deterministic capped-exponential backoff.  Backoff never sleeps in a
step — the cooling session parks in a ready-time heap while every
other session keeps stepping.  Once attempts or the
per-session retry budget are exhausted, ``on_partition_error="skip"``
quarantines the partition (the scan emits the pruning path's empty
progress-advancing DELTA and the loss is recorded as degraded state);
the default ``"fail"`` keeps fail-fast semantics.  ``KeyboardInterrupt``
and ``SystemExit`` are never swallowed into a FAILED session: the
session is restored to its runnable state and the exception re-raised.
"""

from __future__ import annotations

import functools
import heapq
import threading
import time
from concurrent.futures import Future
from typing import Callable

from repro.engine.executor import StepExecutor
from repro.errors import QueryError, is_transient
from repro.service.retry import RetryPolicy
from repro.service.session import (
    AttachedSession,
    QuerySession,
    SessionState,
)

#: How long the background loop dozes when nothing is runnable.
_IDLE_WAIT = 0.05

#: States a session can be stepped in.
_RUNNABLE = (SessionState.SUBMITTED, SessionState.RUNNING)


def _apply(future: Future, call: Callable) -> None:
    """Run one command, settling its future with the result or the
    exception (unless its caller withdrew it)."""
    if future.set_running_or_notify_cancel():
        try:
            future.set_result(call())
        except BaseException as exc:  # noqa: BLE001 - the caller's to raise
            future.set_exception(exc)


def _as_command(method: Callable) -> Callable:
    """Make a control method a command (see ``_command``)."""

    @functools.wraps(method)
    def call(self: "FairShareScheduler", *args, **kwargs):
        return self._command(method, self, *args, **kwargs).result()

    return call


class FairShareScheduler:
    """Time-slices partition-steps across registered query sessions."""

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        metrics=None,
    ) -> None:
        #: session id -> session, in submission order.  Replaced on
        #: every write, never mutated, so readers need no lock.
        self._sessions: dict[str, QuerySession | AttachedSession] = {}
        self._heap: list[tuple[float, int, str, int]] = []
        #: Sessions waiting out a retry backoff: (ready_monotonic,
        #: counter, session_id, epoch).  Admitted back into the main
        #: heap at their own vtime once ready.
        self._cooling: list[tuple[float, int, str, int]] = []
        self._counter = 0  # submission-order tie break
        self._clock = 0.0  # virtual time of the last scheduled session
        self._next_id = 1
        #: Guards the command queue and the loop thread's lifecycle;
        #: the idle loop waits on it.
        self._queue = threading.Condition()
        self._commands: list[tuple[Future, Callable]] = []
        self._thread: threading.Thread | None = None
        self._stopping = False
        #: Fault-tolerance policy; ``None`` = fail-fast (no retries).
        self.retry = retry
        #: Optional :class:`repro.obs.instruments.ServiceInstruments`
        #: bundle.  Instruments are pre-bound here once; the per-step
        #: cost with telemetry on is one clock pair + three locked adds
        #: and exactly one ``is None`` check when off.
        self.metrics = metrics
        self._step_metrics = (metrics.scheduler if metrics is not None
                              else None)
        self._buffer_metrics = (metrics.buffer if metrics is not None
                                else None)

    # -- commands -----------------------------------------------------------------
    def _command(self, fn: Callable, *args, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` as the writer; returns its future.

        While a loop thread runs, a call from any other thread is
        queued for the loop to apply before its next step.  On the loop
        thread itself, and when no loop thread runs, ``fn`` applies
        inline and the future is already settled."""
        future: Future = Future()
        call = functools.partial(fn, *args, **kwargs)
        with self._queue:
            queued = self._thread not in (None, threading.current_thread())
            if queued:
                self._commands.append((future, call))
                self._queue.notify()
        if not queued:
            _apply(future, call)
        return future

    def _apply_commands(self) -> None:
        with self._queue:
            commands, self._commands = self._commands, []
        for future, call in commands:
            _apply(future, call)
        if commands:
            # Yield the interpreter once, so the callers just woken get
            # to act on their replies before the next step starts.
            time.sleep(0)

    # -- registration -------------------------------------------------------------
    @_as_command
    def submit(
        self,
        executor: StepExecutor,
        name: str | None = None,
        priority: float = 1.0,
        paused: bool = False,
        trace=None,
    ) -> QuerySession:
        """Register a query for execution; returns its live session.
        ``paused=True`` admits the session without scheduling it (e.g.
        to attach subscribers first), until ``resume``.  ``trace``
        (a :class:`~repro.obs.trace.SessionTrace`) must be passed here
        rather than set afterwards: the step loop may run the session
        as soon as this returns."""
        session_id = f"s{self._next_id}"
        self._next_id += 1
        session = QuerySession(session_id, name or session_id, executor,
                               priority=priority,
                               buffer_metrics=self._buffer_metrics)
        session.trace = trace
        session.vtime = self._clock
        self._sessions = {**self._sessions, session_id: session}
        if paused:
            session.state = SessionState.PAUSED
        else:
            self._push(session)
        return session

    @_as_command
    def attach(
        self,
        primary: QuerySession,
        name: str | None = None,
    ) -> AttachedSession:
        """Register a new session that *replays* ``primary`` instead of
        executing (the result-cache hit path).  The new session reads
        the primary's edf through a view of its buffer, so attaching is
        O(1) and every snapshot it serves is the primary's own."""
        session_id = f"s{self._next_id}"
        self._next_id += 1
        attached = AttachedSession(session_id, name or primary.name,
                                   primary)
        self._sessions = {**self._sessions, session_id: attached}
        return attached

    def _push(self, session: QuerySession,
              ready: float | None = None) -> None:
        """Queue ``session`` on the run heap at its virtual time, or, with
        ``ready``, on the cooling heap until that monotonic time."""
        session.epoch += 1
        self._counter += 1
        heap, key = ((self._heap, session.vtime) if ready is None
                     else (self._cooling, ready))
        heapq.heappush(heap, (key, self._counter, session.session_id,
                              session.epoch))

    def _live(self, entry: tuple) -> QuerySession | None:
        """The session a heap entry queues, or ``None`` when the entry
        went stale (paused, cancelled, re-queued or pruned since)."""
        _, _, session_id, epoch = entry
        session = self._sessions.get(session_id)
        if (session is None or epoch != session.epoch
                or session.state not in _RUNNABLE):
            return None
        return session

    # -- lookup -------------------------------------------------------------------
    def get(self, session_id: str) -> QuerySession | AttachedSession:
        """The session registered as ``session_id``."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise QueryError(f"no session {session_id!r}") from None

    def sessions(self) -> list[QuerySession | AttachedSession]:
        """Every registered session, in submission order."""
        return list(self._sessions.values())

    # -- observability views ------------------------------------------------------
    def _runnable(self) -> list[QuerySession]:
        return [
            s for s in self._sessions.values()
            if s.state in _RUNNABLE and not isinstance(s, AttachedSession)
        ]

    def run_queue_depth(self) -> int:
        """Sessions currently runnable (SUBMITTED/RUNNING) — the
        metrics-surface load signal."""
        return len(self._runnable())

    def vclock_skew(self) -> float:
        """Spread of runnable sessions' virtual times — the stride-
        scheduling fairness signal (0.0 = perfectly fair or < 2
        runnable sessions)."""
        vtimes = [s.vtime for s in self._runnable()]
        return max(vtimes) - min(vtimes) if len(vtimes) > 1 else 0.0

    # -- control plane ------------------------------------------------------------
    @_as_command
    def pause(self, session_id: str) -> SessionState:
        """Stop scheduling a session (its state so far is retained).
        Attached sessions never execute, so pausing one is a no-op."""
        session = self.get(session_id)
        if isinstance(session, AttachedSession):
            return session.state
        if session.state in _RUNNABLE:
            session.state = SessionState.PAUSED
            session.epoch += 1  # invalidate its heap entry
        return session.state

    @_as_command
    def resume(self, session_id: str) -> SessionState:
        """Re-enter a paused session at the current virtual clock."""
        session = self.get(session_id)
        if isinstance(session, AttachedSession):
            return session.state
        if session.state is SessionState.PAUSED:
            session.state = (SessionState.RUNNING if session.steps
                             else SessionState.SUBMITTED)
            session.vtime = max(session.vtime, self._clock)
            self._push(session)
        return session.state

    @_as_command
    def cancel(self, session_id: str) -> SessionState:
        """Terminally stop a session: release its operator state, close
        its read streams, and seal its snapshot buffer.  Applied between
        steps, so it never races the one it interrupts.  Cancelling an
        *attached* session merely detaches it: the primary (and its
        other subscribers) keep running."""
        session = self.get(session_id)
        if session.terminal:
            return session.state
        if isinstance(session, AttachedSession):
            session.detach()
            return session.state
        session.epoch += 1
        session.executor.close()
        session.finish(SessionState.CANCELLED)
        return session.state

    @_as_command
    def prune(self, keep_latest: int = 0) -> list[str]:
        """Drop terminal (DONE/CANCELLED/FAILED) sessions, releasing
        their snapshot history; returns the removed session ids.

        Long-running servers accumulate finished sessions (each pinning
        its full edf) until pruned — call this periodically, optionally
        keeping the ``keep_latest`` most recently finished for
        late subscribers.  Non-terminal sessions are never touched.
        """
        terminal = [s for s in self.sessions() if s.terminal]
        terminal.sort(key=lambda s: s.finished_at or 0.0)
        victims = [s.session_id for s in
                   (terminal[:-keep_latest] if keep_latest else terminal)]
        gone = set(victims)
        self._sessions = {k: s for k, s in self._sessions.items()
                          if k not in gone}
        return victims

    # -- stepping -----------------------------------------------------------------
    def run_once(self) -> QuerySession | None:
        """Apply the queued commands, then execute one partition-step of
        the fairest runnable session; returns it, or ``None`` when
        nothing is runnable right now (sessions cooling off between
        retries do not count as runnable — see :meth:`next_ready_in`)."""
        self._apply_commands()
        self._admit_cooled()
        session = self._pop_runnable()
        if session is None:
            return None
        if session.state is SessionState.SUBMITTED:
            session.state = SessionState.RUNNING
        instruments = self._step_metrics
        trace = session.trace
        timed = instruments is not None or trace is not None
        started = time.perf_counter() if timed else 0.0
        try:
            session.executor.step()
        except BaseException as exc:  # noqa: BLE001 - classified below
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                # Never swallow an interrupt into a FAILED session:
                # restore the session to its runnable state (it was
                # popped above) and let the interrupt propagate.
                self._push(session)
                raise
            return self._handle_step_error(session, exc)
        if timed:
            elapsed = time.perf_counter() - started
            if instruments is not None:
                instruments.steps.inc()
                instruments.step_seconds.observe(elapsed)
            if trace is not None:
                trace.record_step(session.steps, elapsed)
        session.steps += 1
        session.attempt = 0  # the current step succeeded
        session.vtime += 1.0 / session.priority
        moved = session.buffer.publish()
        if trace is not None and moved:
            trace.record_publish(moved)
        if session.executor.done:
            session.finish(SessionState.DONE)
        else:
            self._push(session)
        return session

    def _handle_step_error(
        self, session: QuerySession, exc: BaseException
    ) -> QuerySession:
        """Retry, quarantine, or fail a session whose step raised.
        Never sleeps."""
        policy = self.retry
        session.last_error = exc
        # Only a retry-safe failure (the partition pull raised before
        # any operator state advanced) may be retried or skipped —
        # a mid-dispatch failure would double-process on retry.
        retry_safe = (policy is not None
                      and session.executor.step_retry_safe)
        instruments = self._step_metrics
        if retry_safe and is_transient(exc):
            session.attempt += 1
            if (session.attempt < policy.max_attempts
                    and session.retries_used < policy.retry_budget):
                session.retries_used += 1
                delay = policy.backoff(session.attempt)
                if instruments is not None:
                    instruments.retries.inc()
                    instruments.backoff_seconds.inc(delay)
                # Cools off while every other session keeps stepping.
                self._push(session, ready=time.monotonic() + delay)
                return session
        if retry_safe and policy.on_partition_error == "skip":
            record = session.executor.quarantine_current()
            if record is not None:
                if instruments is not None:
                    instruments.quarantines.inc()
                # Quarantined: the next step emits the empty
                # progress-advancing DELTA instead of re-reading the
                # file, and the loss is recorded as degraded state.
                session.quarantined.append(record)
                session.attempt = 0
                self._push(session)
                return session
        try:
            session.executor.close()
        finally:
            # Seal with the error (attached sessions read the same
            # buffer): subscribers receive a terminal error event
            # instead of inferring failure from silence.
            session.finish(SessionState.FAILED, error=exc)
        return session

    def _admit_cooled(self) -> None:
        """Move sessions whose backoff expired back into the run heap."""
        now = time.monotonic()
        while self._cooling and self._cooling[0][0] <= now:
            session = self._live(heapq.heappop(self._cooling))
            if session is not None:
                self._push(session)

    def next_ready_in(self) -> float | None:
        """Seconds until the earliest cooling session is ready to retry
        (0.0 when one is overdue), or ``None`` when nothing is cooling.
        Lets idle loops sleep instead of spinning; called by the thread
        that steps (it drops stale entries)."""
        while self._cooling and self._live(self._cooling[0]) is None:
            heapq.heappop(self._cooling)
        if not self._cooling:
            return None
        return max(0.0, self._cooling[0][0] - time.monotonic())

    def _pop_runnable(self) -> QuerySession | None:
        while self._heap:
            entry = heapq.heappop(self._heap)
            session = self._live(entry)
            if session is not None:
                self._clock = entry[0]
                return session
        return None

    def run_until_idle(self) -> None:
        """Step until nothing is runnable (runnable sessions drain to
        DONE; paused sessions stay paused).  Sessions cooling off
        between retries are waited for, so the call still drains
        everything that can eventually run."""
        while True:
            if self.run_once() is not None:
                continue
            delay = self.next_ready_in()
            if delay is None:
                return
            if delay > 0:
                time.sleep(delay)

    # -- background-thread mode ---------------------------------------------------
    def start(self) -> None:
        """Run the step loop on a daemon thread (the server mode)."""
        with self._queue:
            if self._thread is not None:
                return
            self._stopping = False
            self._thread = threading.Thread(
                target=self._loop, name="wake-scheduler", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        try:
            while True:
                stepped = self.run_once()
                delay = None if stepped is not None else self.next_ready_in()
                with self._queue:
                    if self._stopping:
                        return
                    # A command queued since run_once() notified under
                    # this lock, so this check cannot miss it.
                    if stepped is None and not (self._commands
                                                or self._heap):
                        self._queue.wait(
                            _IDLE_WAIT if delay is None
                            else min(_IDLE_WAIT, max(delay, 0.001)))
        finally:
            # Commands queued after the last step still get applied
            # (here, as the last writer), so no caller is left waiting.
            with self._queue:
                self._thread = None
                self._apply_commands()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the background loop after its current step (sessions
        keep their state; call ``cancel`` per session to release
        executor resources).  Commands still queued are applied before
        the loop exits; later control calls apply inline."""
        with self._queue:
            self._stopping = True
            self._queue.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)

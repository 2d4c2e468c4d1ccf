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

The scheduler is *cooperative*: one step (one source partition pushed
through one query's graph) is the indivisible quantum, executed under
the scheduler lock.  Control operations (pause/resume/cancel/submit)
take the same lock, so a cancel can never race the step it interrupts —
cancellation closes the executor's read streams and releases its
operator state before returning.  The lock hands over at the end of a
step: a control call that is waiting gets it before the loop can start
the next step, so it waits at most one step however busy the loop is
(:class:`_HandoffLock`).  Subscribers never take this lock;
they wait on the per-session buffer instead, so a slow consumer cannot
block execution, and :meth:`FairShareScheduler.get` reads the session
table without it.

**Fault tolerance.**  With a :class:`~repro.service.retry.RetryPolicy`
attached, a step that raises a *retry-safe transient* error (the
partition read failed, no operator state advanced — see
:attr:`StepExecutor.step_retry_safe`) does not FAIL the session:
the session re-enters at its current virtual clock after a
deterministic capped-exponential backoff.  Backoff never sleeps under
the scheduler lock — the cooling session parks in a ready-time heap
while every other session keeps stepping.  Once attempts or the
per-session retry budget are exhausted, ``on_partition_error="skip"``
quarantines the partition (the scan emits the pruning path's empty
progress-advancing DELTA and the loss is recorded as degraded state);
the default ``"fail"`` keeps fail-fast semantics.  ``KeyboardInterrupt``
and ``SystemExit`` are never swallowed into a FAILED session: the
session is restored to its runnable state and the exception re-raised.
"""

from __future__ import annotations

import heapq
import threading
import time

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


class _HandoffLock:
    """The scheduler lock: reentrant, and a thread that is waiting for
    it gets it before the thread that just released it can take it back.

    A plain lock lets the releasing thread win: the step loop lets go
    at the end of a step and re-takes it within microseconds, long
    before a control call that was woken can run.  So a ``subscribe``
    waited for the whole query to finish, and the server's event loop
    waited with it.  Here a first-time acquire passes through ``_gate``.
    A waiter holds the gate while it waits, so the loop stops at the
    gate until the waiter has had its turn.  Re-entry skips the gate: a
    holder waiting at it would deadlock against the waiter it lets in.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._gate = threading.Lock()

    def acquire(self) -> bool:
        if self._lock._is_owned():
            return self._lock.acquire()
        with self._gate:
            return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()

    # threading.Condition: wait() drops every level and takes them back.
    def _is_owned(self) -> bool:
        return self._lock._is_owned()

    def _release_save(self):
        return self._lock._release_save()

    def _acquire_restore(self, state) -> None:
        with self._gate:
            self._lock._acquire_restore(state)


class FairShareScheduler:
    """Time-slices partition-steps across registered query sessions."""

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        metrics=None,
    ) -> None:
        self._lock = _HandoffLock()
        self._work = threading.Condition(self._lock)
        self._sessions: dict[str, QuerySession] = {}
        self._heap: list[tuple[float, int, str, int]] = []
        #: Sessions waiting out a retry backoff: (ready_monotonic,
        #: counter, session_id, epoch).  Admitted back into the main
        #: heap at their own vtime once ready.
        self._cooling: list[tuple[float, int, str, int]] = []
        self._counter = 0  # submission-order tie break
        self._clock = 0.0  # virtual time of the last scheduled session
        self._next_id = 1
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

    # -- registration -------------------------------------------------------------
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
        rather than set afterwards: the daemon step loop may run the
        session the moment the lock drops."""
        with self._work:
            session_id = f"s{self._next_id}"
            self._next_id += 1
            session = QuerySession(
                session_id,
                name or session_id,
                executor,
                priority=priority,
                buffer_metrics=self._buffer_metrics,
            )
            session.trace = trace
            session.vtime = self._clock
            self._sessions[session_id] = session
            if paused:
                session.state = SessionState.PAUSED
            else:
                self._push(session)
                self._work.notify_all()
            return session

    def attach(
        self,
        primary: QuerySession,
        name: str | None = None,
    ) -> AttachedSession:
        """Register a new session that *replays* ``primary`` instead of
        executing (the result-cache hit path).  The new session reads
        the primary's edf through a view of its buffer, so attaching is
        O(1) and every snapshot it serves is the primary's own."""
        with self._lock:
            session_id = f"s{self._next_id}"
            self._next_id += 1
            attached = AttachedSession(session_id, name or primary.name,
                                       primary)
            self._sessions[session_id] = attached
            return attached

    def _push(self, session: QuerySession) -> None:
        session.epoch += 1
        self._counter += 1
        heapq.heappush(
            self._heap,
            (session.vtime, self._counter, session.session_id,
             session.epoch),
        )

    # -- lookup -------------------------------------------------------------------
    def get(self, session_id: str) -> QuerySession | AttachedSession:
        """The session registered as ``session_id``.  A plain dict read,
        without the scheduler lock, so a lookup on the server's event
        loop never waits out a running step."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise QueryError(f"no session {session_id!r}") from None

    def sessions(self) -> list[QuerySession]:
        with self._lock:
            return [self._sessions[k] for k in sorted(
                self._sessions, key=lambda s: int(s[1:]))]

    # -- observability views ------------------------------------------------------
    def run_queue_depth(self) -> int:
        """Sessions currently runnable (SUBMITTED/RUNNING) — the
        metrics-surface load signal."""
        with self._lock:
            return sum(
                1 for s in self._sessions.values()
                if s.state in (SessionState.SUBMITTED,
                               SessionState.RUNNING)
                and not isinstance(s, AttachedSession)
            )

    def vclock_skew(self) -> float:
        """Spread of runnable sessions' virtual times — the stride-
        scheduling fairness signal (0.0 = perfectly fair or < 2
        runnable sessions)."""
        with self._lock:
            vtimes = [
                s.vtime for s in self._sessions.values()
                if s.state in (SessionState.SUBMITTED,
                               SessionState.RUNNING)
                and not isinstance(s, AttachedSession)
            ]
            if len(vtimes) < 2:
                return 0.0
            return max(vtimes) - min(vtimes)

    # -- control plane ------------------------------------------------------------
    def pause(self, session_id: str) -> SessionState:
        """Stop scheduling a session (its state so far is retained).
        Attached sessions never execute, so pausing one is a no-op."""
        with self._lock:
            session = self.get(session_id)
            if isinstance(session, AttachedSession):
                return session.state
            if session.state in (SessionState.SUBMITTED,
                                 SessionState.RUNNING):
                session.state = SessionState.PAUSED
                session.epoch += 1  # invalidate its heap entry
            return session.state

    def resume(self, session_id: str) -> SessionState:
        """Re-enter a paused session at the current virtual clock."""
        with self._work:
            session = self.get(session_id)
            if isinstance(session, AttachedSession):
                return session.state
            if session.state is SessionState.PAUSED:
                session.state = (SessionState.RUNNING if session.steps
                                 else SessionState.SUBMITTED)
                session.vtime = max(session.vtime, self._clock)
                self._push(session)
                self._work.notify_all()
            return session.state

    def cancel(self, session_id: str) -> SessionState:
        """Terminally stop a session: release its operator state, close
        its read streams, and seal its snapshot buffer.  Safe while the
        scheduler thread runs — the shared lock serializes the cancel
        against any in-flight step.  Cancelling an *attached* session
        merely detaches it: the primary (and its other subscribers)
        keep running."""
        with self._lock:
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

    def prune(self, keep_latest: int = 0) -> list[str]:
        """Drop terminal (DONE/CANCELLED/FAILED) sessions, releasing
        their snapshot history; returns the removed session ids.

        Long-running servers accumulate finished sessions (each pinning
        its full edf) until pruned — call this periodically, optionally
        keeping the ``keep_latest`` most recently finished for
        late subscribers.  Non-terminal sessions are never touched.
        """
        with self._lock:
            terminal = [s for s in self.sessions() if s.terminal]
            terminal.sort(key=lambda s: s.finished_at or 0.0)
            victims = (terminal[:-keep_latest] if keep_latest
                       else terminal)
            for session in victims:
                del self._sessions[session.session_id]
            return [s.session_id for s in victims]

    # -- stepping -----------------------------------------------------------------
    def run_once(self) -> QuerySession | None:
        """Execute one partition-step of the fairest runnable session;
        returns it, or ``None`` when nothing is runnable right now
        (sessions cooling off between retries do not count as
        runnable — see :meth:`next_ready_in`)."""
        with self._lock:
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
        Called under the lock; never sleeps."""
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
                self._cool(session, delay)
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
                self._work.notify_all()
                return session
        try:
            session.executor.close()
        finally:
            # Seal with the error (attached sessions read the same
            # buffer): subscribers receive a terminal error event
            # instead of inferring failure from silence.
            session.finish(SessionState.FAILED, error=exc)
        return session

    def _cool(self, session: QuerySession, delay: float) -> None:
        """Park a session until its backoff expires (lock held; the
        actual waiting happens off-lock in the callers' idle loops)."""
        session.epoch += 1
        self._counter += 1
        heapq.heappush(
            self._cooling,
            (time.monotonic() + delay, self._counter,
             session.session_id, session.epoch),
        )

    def _admit_cooled(self) -> None:
        """Move sessions whose backoff expired back into the run heap."""
        now = time.monotonic()
        while self._cooling and self._cooling[0][0] <= now:
            _, _, session_id, epoch = heapq.heappop(self._cooling)
            session = self._sessions.get(session_id)
            if (session is None or epoch != session.epoch
                    or session.state not in (SessionState.SUBMITTED,
                                             SessionState.RUNNING)):
                continue  # paused/cancelled/pruned while cooling
            self._push(session)

    def next_ready_in(self) -> float | None:
        """Seconds until the earliest cooling session is ready to retry
        (0.0 when one is overdue), or ``None`` when nothing is cooling.
        Lets idle loops sleep off-lock instead of spinning."""
        with self._lock:
            now = time.monotonic()
            while self._cooling:
                ready, _, session_id, epoch = self._cooling[0]
                session = self._sessions.get(session_id)
                if (session is None or epoch != session.epoch
                        or session.state not in (SessionState.SUBMITTED,
                                                 SessionState.RUNNING)):
                    heapq.heappop(self._cooling)  # stale entry
                    continue
                return max(0.0, ready - now)
            return None

    def _pop_runnable(self) -> QuerySession | None:
        while self._heap:
            vtime, _, session_id, epoch = heapq.heappop(self._heap)
            session = self._sessions.get(session_id)
            if session is None or epoch != session.epoch:
                continue  # stale entry (paused/cancelled/re-pushed)
            if session.state not in (SessionState.SUBMITTED,
                                     SessionState.RUNNING):
                continue
            self._clock = vtime
            return session
        return None

    def run_until_idle(self) -> None:
        """Step until nothing is runnable (runnable sessions drain to
        DONE; paused sessions stay paused).  Sessions cooling off
        between retries are waited for — off the lock — so the call
        still drains everything that can eventually run."""
        while True:
            if self.run_once() is not None:
                continue
            delay = self.next_ready_in()
            if delay is None:
                return
            if delay > 0:
                time.sleep(delay)  # off-lock: others keep stepping

    # -- background-thread mode ---------------------------------------------------
    def start(self) -> None:
        """Run the step loop on a daemon thread (the server mode)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stopping = False
            self._thread = threading.Thread(
                target=self._loop, name="wake-scheduler", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._work:
                if self._stopping:
                    return
            if self.run_once() is None:
                delay = self.next_ready_in()
                wait = (_IDLE_WAIT if delay is None
                        else min(_IDLE_WAIT, max(delay, 0.001)))
                with self._work:
                    if self._stopping:
                        return
                    # A submit / resume that landed since run_once()
                    # notified nobody: its push is in the heap, so step
                    # it now instead of dozing through the lost wakeup.
                    if not self._heap:
                        self._work.wait(wait)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the background loop (sessions keep their state; call
        ``cancel`` per session to release executor resources)."""
        with self._work:
            self._stopping = True
            self._work.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=timeout)

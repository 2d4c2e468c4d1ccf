"""Query sessions: lifecycle state machine + snapshot views.

A :class:`QuerySession` wraps one :class:`~repro.engine.executor.
StepExecutor` submitted to the service.  The scheduler thread drives it
(``RUNNING`` → ``DONE``/``FAILED``); the control plane pauses, resumes,
or cancels it.  The executor's edf is the one list of a query's
snapshots: the session's :class:`SnapshotBuffer` stores none of its own,
it marks how much of the edf is published and lets any number of
subscribers read that prefix at their own pace.  Execution publishes
without ever blocking on a consumer, so a slow subscriber can never
stall a query.  A result-cache hit (:class:`AttachedSession`) reads its
primary's edf the same way.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from enum import Enum
from typing import Iterator

from repro.core.edf import EdfSnapshot, EvolvingDataFrame
from repro.engine.executor import StepExecutor
from repro.errors import QueryError


class SessionState(Enum):
    """Lifecycle: SUBMITTED → RUNNING → PAUSED | DONE | CANCELLED |
    FAILED (PAUSED can resume back to RUNNING; the last three are
    terminal)."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


#: States from which no further steps will ever execute.
TERMINAL_STATES = frozenset(
    {SessionState.DONE, SessionState.CANCELLED, SessionState.FAILED}
)




class SnapshotBuffer:
    """The published prefix of one executor's edf, read through
    independent cursors.

    The buffer stores no snapshots: the edf is the one list.  The
    producer (the scheduler thread) calls :meth:`publish` after each
    step and never blocks; readers see only published indices — never a
    snapshot the edf gained mid-step — and each blocks (with optional
    timeout) only on *its own* reads.  ``close()`` wakes every waiting
    reader; a closed buffer still serves everything it published.

    :meth:`view` gives a result-cache hit its own handle on the same
    prefix, with its own subscriber count and lag; :meth:`cut` ends a
    view where its source stands without ending the source.
    """

    def __init__(self, edf: EvolvingDataFrame, metrics=None) -> None:
        self._cond = threading.Condition()
        self._edf = edf
        #: The buffer whose publish()/close() this one follows (itself
        #: unless it is a view).
        self._source = self
        self._published = 0
        #: Where a cut view ends (None while it follows its source).
        self._stop: int | None = None
        self._closed = False
        self._error: BaseException | None = None
        # Reader counters are always kept (plain int adds) so `status`
        # can report them with telemetry off; the optional pre-bound
        # BufferInstruments bundle also feeds the metrics registry and
        # stamps publish times for the snapshot-lag histogram.
        self._subscribers = 0
        self._last_lag: float | None = None
        self._metrics = metrics
        self._times: list[float] = []  # publish time per published index

    def view(self) -> "SnapshotBuffer":
        """A new reader handle on this buffer's published prefix."""
        view = SnapshotBuffer(self._edf)
        view._cond = self._cond
        view._source = self
        return view

    def publish(self) -> int:
        """Publish every snapshot the edf gained since the last call and
        wake the readers; returns how many.  Never blocks."""
        with self._cond:
            moved = len(self._edf) - self._published
            if moved:
                metrics = self._metrics
                if metrics is not None:
                    self._times.extend(
                        itertools.repeat(metrics.clock(), moved))
                    metrics.snapshots.inc(moved)
                self._published += moved
                self._cond.notify_all()
            return moved

    def close(self, error: BaseException | None = None) -> None:
        """No more snapshots will ever be published; wake all waiters.

        ``error`` seals the buffer with the terminal failure, so
        subscribers that drain it learn *why* the stream ended instead
        of having to infer it from session state."""
        with self._cond:
            self._closed = True
            if error is not None and self._error is None:
                self._error = error
            self._cond.notify_all()

    def cut(self) -> None:
        """End this view at the count its source has published so far
        (a detach): its readers drain that prefix and stop, while the
        source and its other views go on."""
        with self._cond:
            self._stop = self._source._published
            self._closed = True
            self._cond.notify_all()

    def _end(self) -> int:
        """How many snapshots this buffer's readers may see (lock
        held)."""
        return self._source._published if self._stop is None else self._stop

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed or self._source._closed

    def retained(self) -> list[EdfSnapshot]:
        """Every published snapshot, oldest first (the edf's own
        objects)."""
        with self._cond:
            return list(itertools.islice(self._edf, self._end()))

    def latest(self) -> EdfSnapshot | None:
        """The newest published snapshot (None while nothing is)."""
        with self._cond:
            end = self._end()
            return self._edf.snapshot(end - 1) if end else None

    @property
    def error(self) -> BaseException | None:
        """The terminal error the buffer was sealed with (None unless
        the producing session FAILED)."""
        with self._cond:
            return self._source._error if self._stop is None else None

    # -- observability views ------------------------------------------------------
    @property
    def subscribers(self) -> int:
        """Cursors ever opened over this buffer."""
        with self._cond:
            return self._subscribers

    @property
    def last_lag(self) -> float | None:
        """Most recent publish-to-consume delay in seconds (``None``
        until a consume happens with telemetry on)."""
        with self._cond:
            return self._last_lag

    def register_cursor(self) -> None:
        """Count one new subscriber (called by :class:`Subscription`)."""
        with self._cond:
            self._subscribers += 1

    def __len__(self) -> int:
        """Snapshots published so far."""
        with self._cond:
            return self._end()

    def get(
        self, cursor: int, timeout: float | None = None
    ) -> EdfSnapshot | None:
        """The published snapshot at ``cursor``, blocking until it
        exists; ``None`` when the buffer closed before reaching
        ``cursor`` or the timeout expired."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while True:
                if cursor < self._end():
                    source = self._source
                    metrics = source._metrics
                    if metrics is not None:
                        lag = metrics.clock() - source._times[cursor]
                        self._last_lag = lag
                        metrics.lag.observe(lag)
                    return self._edf.snapshot(cursor)
                if self._closed or self._source._closed:
                    return None
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)


class Subscription:
    """One subscriber's cursor over a session's snapshot buffer."""

    def __init__(self, buffer: SnapshotBuffer, start: int = 0) -> None:
        self._buffer = buffer
        self._cursor = max(start, 0)
        buffer.register_cursor()

    @property
    def cursor(self) -> int:
        return self._cursor

    def next(self, timeout: float | None = None) -> EdfSnapshot | None:
        """The next unseen snapshot, or ``None`` when the stream is over
        (buffer closed and drained) or ``timeout`` expired."""
        snapshot = self._buffer.get(self._cursor, timeout=timeout)
        if snapshot is not None:
            self._cursor += 1
        return snapshot

    @property
    def finished(self) -> bool:
        """True once the buffer is closed and fully consumed."""
        return (self._buffer.closed
                and self._cursor >= len(self._buffer))

    @property
    def error(self) -> BaseException | None:
        """The terminal error of a FAILED session's stream (None while
        the session is live or when it ended cleanly)."""
        return self._buffer.error

    def __iter__(self) -> Iterator[EdfSnapshot]:
        while True:
            snapshot = self.next()
            if snapshot is None:
                return
            yield snapshot


class _Session:
    """The surface subscribers and the control plane read off either
    kind of session."""

    #: True for a result-cache hit (:class:`AttachedSession`).
    cache_hit = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def subscribe(self, start: int = 0) -> Subscription:
        """A new cursor over this session's snapshots.  ``start=0``
        replays from the first snapshot, so subscribers that attach
        after completion still see the full refinement."""
        return Subscription(self.buffer, start=start)

    def status(self) -> dict:
        """A JSON-friendly summary (the wire ``status`` payload)."""
        buffer = self.buffer
        latest = buffer.latest()
        return {
            "session": self.session_id,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "steps": self.steps,
            "snapshots": len(buffer),
            "t": latest.t if latest is not None else 0.0,
            "final": latest.is_final if latest is not None else False,
            "error": repr(self.error) if self.error is not None else None,
            "retries": self.retries_used,
            "degraded": self.degraded(),
            "cache_hit": self.cache_hit,
            "buffer": {
                "subscribers": buffer.subscribers,
                "snapshot_lag_seconds": buffer.last_lag,
            },
        }


class QuerySession(_Session):
    """One submitted query: executor + lifecycle + snapshot buffer.

    State is written only under the owning scheduler's lock (the
    scheduler mutates RUNNING/DONE/FAILED from its step loop; control
    threads mutate PAUSED/CANCELLED through the scheduler's methods, so
    a cancel can never race a step).
    """

    def __init__(
        self,
        session_id: str,
        name: str,
        executor: StepExecutor,
        priority: float = 1.0,
        buffer_metrics=None,
    ) -> None:
        # NaN compares false against everything and infinity makes a
        # zero stride; either one would wreck the stride order.
        if not (math.isfinite(priority) and priority > 0):
            raise QueryError(
                f"session priority must be finite and > 0, got {priority}"
            )
        self.session_id = session_id
        self.name = name
        self.executor = executor
        self.priority = float(priority)
        self.state = SessionState.SUBMITTED
        self.error: BaseException | None = None
        self.buffer = SnapshotBuffer(executor.edf, metrics=buffer_metrics)
        self.steps = 0
        #: Consecutive failed attempts at the *current* step (reset to 0
        #: by the scheduler after any successful step or quarantine).
        self.attempt = 0
        #: Total retries consumed across the session's lifetime
        #: (bounded by the retry policy's ``retry_budget``).
        self.retries_used = 0
        #: Most recent step error (kept even after a successful retry,
        #: so degraded state can report what went wrong).
        self.last_error: BaseException | None = None
        #: Quarantined-partition records (skip-and-degrade mode).
        self.quarantined: list = []
        #: Stride-scheduling virtual time (advanced by 1/priority per
        #: step; owned by the scheduler).
        self.vtime = 0.0
        #: Heap-entry validity token (owned by the scheduler).
        self.epoch = 0
        self.submitted_at = time.monotonic()
        self.finished_at: float | None = None
        #: Canonical plan hash (set by the service when the result
        #: cache is on; ``None`` for directly scheduled sessions).
        self.plan_hash: str | None = None
        #: Optional :class:`repro.obs.trace.SessionTrace` — set via
        #: ``scheduler.submit(trace=...)`` *before* the daemon step
        #: loop can touch the session, so no step goes unrecorded.
        self.trace = None

    def finish(
        self,
        state: SessionState,
        error: BaseException | None = None,
    ) -> None:
        """Enter a terminal state: publish what the edf holds and seal
        the buffer.  Every result-cache hit reading it ends with it —
        DONE, FAILED with the same error, or CANCELLED.  Called under
        the scheduler lock."""
        self.state = state
        if error is not None:
            self.error = error
        self.finished_at = time.monotonic()
        if self.trace is not None:
            self.trace.finish(state=state.value)
        self.buffer.publish()
        self.buffer.close(error=error)

    def degraded(self) -> dict | None:
        """Degraded-state summary, or ``None`` for a healthy session.

        A session degrades when skip-and-degrade mode quarantines
        partitions: the answer keeps refining but is missing the listed
        partitions' rows.  JSON-friendly (wire ``status`` payload)."""
        if not self.quarantined:
            return None
        return {
            "partitions": [
                {
                    "source": q.source,
                    "table": q.table,
                    "index": q.index,
                    "path": q.path,
                    "rows": q.rows,
                }
                for q in self.quarantined
            ],
            "rows_lost": int(sum(q.rows for q in self.quarantined)),
            "last_error": (repr(self.last_error)
                           if self.last_error is not None else None),
        }

    def __repr__(self) -> str:
        return (f"QuerySession({self.session_id!r}, {self.name!r}, "
                f"state={self.state.value})")


class AttachedSession(_Session):
    """A result-cache hit: a session that *replays* another session's
    snapshots instead of executing.

    Created by :meth:`FairShareScheduler.attach` when a submit's
    canonical plan hash matches an in-flight (or retained) primary
    session.  It reads the primary's edf through a view of the
    primary's buffer, so an attach is O(1) and zero execution, and every
    snapshot it serves is the primary's own object.  The
    subscriber-facing surface (``subscribe``/``status``/``degraded``)
    matches :class:`QuerySession`, so clients cannot tell (except via
    ``cache_hit``/``attached_to`` in ``status``) that nothing ran.

    Lifecycle: state and error are the primary's.  ``cancel`` on an
    attached session merely *detaches* it — its streams end at the
    count published so far while the primary and any other subscribers
    keep going; pause/resume are no-ops (there is no execution to
    deschedule).
    """

    cache_hit = True

    def __init__(
        self,
        session_id: str,
        name: str,
        primary: QuerySession,
    ) -> None:
        self.session_id = session_id
        self.name = name
        self.primary = primary
        self.priority = primary.priority
        self.buffer = primary.buffer.view()
        self.plan_hash = primary.plan_hash
        self.submitted_at = time.monotonic()
        self._detached_at: float | None = None

    # -- mirrored views ------------------------------------------------------------
    @property
    def state(self) -> SessionState:
        if self._detached_at is not None:
            return SessionState.CANCELLED
        return self.primary.state

    @property
    def error(self) -> BaseException | None:
        return None if self._detached_at is not None else self.primary.error

    @property
    def finished_at(self) -> float | None:
        if self._detached_at is not None:
            return self._detached_at
        return self.primary.finished_at

    @property
    def steps(self) -> int:
        """Partition-steps executed *by the primary* — this session
        itself never executes."""
        return self.primary.steps

    @property
    def retries_used(self) -> int:
        return self.primary.retries_used

    @property
    def quarantined(self) -> list:
        return self.primary.quarantined

    def degraded(self) -> dict | None:
        """Degradation is shared state: a partition quarantined in the
        primary is missing from every attached subscriber's answer."""
        return self.primary.degraded()

    def detach(self) -> None:
        """Stop mirroring (the attached session's ``cancel``): end this
        session's streams at what the primary has published and leave
        the primary — and its other subscribers — untouched."""
        if self.terminal:
            return
        self._detached_at = time.monotonic()
        self.buffer.cut()

    def status(self) -> dict:
        """The wire ``status`` payload — :meth:`QuerySession.status`'s
        shape plus the attach provenance."""
        return {**super().status(), "attached_to": self.primary.session_id}

    def __repr__(self) -> str:
        return (f"AttachedSession({self.session_id!r}, {self.name!r}, "
                f"primary={self.primary.session_id!r}, "
                f"state={self.state.value})")

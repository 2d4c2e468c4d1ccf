"""Query sessions: lifecycle state machine + snapshot buffers.

A :class:`QuerySession` wraps one :class:`~repro.engine.executor.
StepExecutor` submitted to the service.  The scheduler thread drives it
(``RUNNING`` → ``DONE``/``FAILED``); the control plane pauses, resumes,
or cancels it.  Snapshots produced by the executor are pumped into a
:class:`SnapshotBuffer` from which any number of subscribers read at
their own pace — execution appends without ever blocking on a consumer,
so a slow subscriber can never stall a query (backpressure is handled
by eviction when the buffer is bounded, never by stalling the
producer).
"""

from __future__ import annotations

import math
import threading
import time
from enum import Enum
from typing import Iterator

from repro.core.edf import EdfSnapshot
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
    """Append-only snapshot sequence with independent read cursors.

    The producer (the scheduler thread) appends and never blocks; each
    subscriber holds a cursor — the index of the next snapshot it wants
    — and blocks (with optional timeout) only on *its own* reads.  With
    ``maxlen`` set, only the newest ``maxlen`` snapshots are retained:
    a lagging cursor skips forward and is told how many snapshots it
    dropped.  ``close()`` wakes every waiting subscriber; a closed
    buffer still serves the snapshots it retains.
    """

    def __init__(self, maxlen: int | None = None,
                 metrics=None) -> None:
        if maxlen is not None and maxlen < 1:
            raise QueryError(f"buffer maxlen must be >= 1, got {maxlen}")
        self._cond = threading.Condition()
        self._snapshots: list[EdfSnapshot] = []
        self._base = 0  # global index of _snapshots[0]
        self._maxlen = maxlen
        self._closed = False
        self._error: BaseException | None = None
        # Cumulative server-side counters.  Always maintained (they are
        # plain int adds) so `status` can report slow consumers even
        # with telemetry off; the optional pre-bound BufferInstruments
        # bundle additionally feeds the metrics registry and stamps
        # produce times for the snapshot-lag histogram.
        self._drops = 0
        self._evictions = 0
        self._subscribers = 0
        self._last_lag: float | None = None
        self._metrics = metrics
        self._times: list[float] = []  # aligned with _snapshots

    def append(self, snapshot: EdfSnapshot) -> None:
        with self._cond:
            self._snapshots.append(snapshot)
            metrics = self._metrics
            if metrics is not None:
                self._times.append(metrics.clock())
                metrics.snapshots.inc()
            if (self._maxlen is not None
                    and len(self._snapshots) > self._maxlen):
                overflow = len(self._snapshots) - self._maxlen
                del self._snapshots[:overflow]
                if metrics is not None:
                    del self._times[:overflow]
                    metrics.evictions.inc(overflow)
                self._base += overflow
                self._evictions += overflow
            self._cond.notify_all()

    def close(self, error: BaseException | None = None) -> None:
        """No more snapshots will ever arrive; wake all waiters.

        ``error`` seals the buffer with the terminal failure, so
        subscribers that drain it learn *why* the stream ended instead
        of having to infer it from session state."""
        with self._cond:
            self._closed = True
            if error is not None and self._error is None:
                self._error = error
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def evicted(self) -> bool:
        """True once bounded-buffer eviction has dropped the prefix —
        a replay from snapshot 0 is no longer possible."""
        with self._cond:
            return self._base > 0

    def retained(self) -> list[EdfSnapshot]:
        """The snapshots currently retained (the full history unless
        eviction dropped the prefix — check :attr:`evicted`)."""
        with self._cond:
            return list(self._snapshots)

    def latest(self) -> EdfSnapshot | None:
        """The newest retained snapshot (None while empty)."""
        with self._cond:
            return self._snapshots[-1] if self._snapshots else None

    @property
    def error(self) -> BaseException | None:
        """The terminal error the buffer was sealed with (None unless
        the producing session FAILED)."""
        with self._cond:
            return self._error

    # -- observability views ------------------------------------------------------
    @property
    def drops(self) -> int:
        """Cumulative snapshots *any* subscriber missed to eviction —
        the server-side slow-consumer signal (per-subscriber counts
        stay on each :class:`Subscription`)."""
        with self._cond:
            return self._drops

    @property
    def evictions(self) -> int:
        """Cumulative snapshots evicted by the ``maxlen`` bound."""
        with self._cond:
            return self._evictions

    @property
    def subscribers(self) -> int:
        """Cursors ever opened over this buffer."""
        with self._cond:
            return self._subscribers

    @property
    def last_lag(self) -> float | None:
        """Most recent produce-to-consume delay in seconds (``None``
        until a consume happens with telemetry on)."""
        with self._cond:
            return self._last_lag

    def register_cursor(self) -> None:
        """Count one new subscriber (called by :class:`Subscription`)."""
        with self._cond:
            self._subscribers += 1

    def __len__(self) -> int:
        """Total snapshots ever appended (independent of eviction)."""
        with self._cond:
            return self._base + len(self._snapshots)

    def get(
        self, cursor: int, timeout: float | None = None
    ) -> tuple[EdfSnapshot | None, int, int]:
        """Read the snapshot at ``cursor`` (or the oldest retained one
        past it), blocking until it exists.

        Returns ``(snapshot, next_cursor, dropped)`` where ``dropped``
        counts evicted snapshots the cursor skipped, or
        ``(None, cursor, 0)`` when the buffer closed with nothing newer
        (or the timeout expired).
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while True:
                end = self._base + len(self._snapshots)
                if cursor < end:
                    index = max(cursor, self._base)
                    snapshot = self._snapshots[index - self._base]
                    dropped = index - cursor
                    if dropped:
                        self._drops += dropped
                    metrics = self._metrics
                    if metrics is not None:
                        lag = (metrics.clock()
                               - self._times[index - self._base])
                        self._last_lag = lag
                        metrics.lag.observe(lag)
                        if dropped:
                            metrics.drops.inc(dropped)
                    return snapshot, index + 1, dropped
                if self._closed:
                    return None, cursor, 0
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None, cursor, 0
                self._cond.wait(remaining)


class Subscription:
    """One subscriber's cursor over a session's snapshot buffer."""

    def __init__(self, buffer: SnapshotBuffer, start: int = 0) -> None:
        self._buffer = buffer
        self._cursor = start
        #: Snapshots this subscriber missed to bounded-buffer eviction.
        self.dropped = 0
        buffer.register_cursor()

    @property
    def cursor(self) -> int:
        return self._cursor

    def next(self, timeout: float | None = None) -> EdfSnapshot | None:
        """The next unseen snapshot, or ``None`` when the stream is over
        (buffer closed and drained) or ``timeout`` expired."""
        snapshot, self._cursor, dropped = self._buffer.get(
            self._cursor, timeout=timeout
        )
        self.dropped += dropped
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


def _buffer_status(buffer: SnapshotBuffer) -> dict:
    """Server-side buffer health for ``status`` replies: cumulative
    drops/evictions (previously visible only to the dropping
    subscriber), subscriber count, and the latest consume lag."""
    return {
        "drops": buffer.drops,
        "evictions": buffer.evictions,
        "subscribers": buffer.subscribers,
        "snapshot_lag_seconds": buffer.last_lag,
    }


class QuerySession:
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
        buffer_size: int | None = None,
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
        self.buffer = SnapshotBuffer(maxlen=buffer_size,
                                     metrics=buffer_metrics)
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
        self._pumped = 0
        #: Canonical plan hash (set by the service when the result
        #: cache is on; ``None`` for directly scheduled sessions).
        self.plan_hash: str | None = None
        #: Optional :class:`repro.obs.trace.SessionTrace` — set via
        #: ``scheduler.submit(trace=...)`` *before* the daemon step
        #: loop can touch the session, so no step goes unrecorded.
        self.trace = None
        #: Attached sessions (result-cache hits) fed by this session's
        #: pump — each receives a *reference* to every snapshot this
        #: session produces (O(1) per snapshot, no copies).
        self.fanout: list["AttachedSession"] = []

    # -- scheduler side -----------------------------------------------------------
    def pump_snapshots(self) -> int:
        """Move newly produced executor snapshots into the buffer (and
        every attached session's buffer — shared references, no
        copies).  Returns how many were transferred.  Never blocks.
        Indexed access keeps the per-step cost O(new snapshots), not
        O(all snapshots ever produced)."""
        edf = self.executor.edf
        moved = 0
        while self._pumped < len(edf):
            snapshot = edf.snapshot(self._pumped)
            self.buffer.append(snapshot)
            for attached in self.fanout:
                attached.buffer.append(snapshot)
            self._pumped += 1
            moved += 1
        return moved

    def finish(
        self,
        state: SessionState,
        error: BaseException | None = None,
    ) -> None:
        """Enter a terminal state: seal this session's buffer and
        propagate the terminal state to every attached session (a
        result-cache subscriber shares its primary's fate — DONE,
        FAILED with the same error, or CANCELLED).  Called under the
        scheduler lock."""
        self.state = state
        if error is not None:
            self.error = error
        self.buffer.close(error=error)
        self.finished_at = time.monotonic()
        if self.trace is not None:
            self.trace.finish(state=state.value)
        for attached in self.fanout:
            attached.finish_from_primary(state, error)
        self.fanout = []

    # -- shared views -------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def subscribe(self, start: int = 0) -> Subscription:
        """A new cursor over this session's snapshots.  ``start=0``
        replays from the first retained snapshot, so subscribers that
        attach after completion still see the full refinement."""
        return Subscription(self.buffer, start=start)

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

    def status(self) -> dict:
        """A JSON-friendly summary (the wire ``status`` payload)."""
        edf = self.executor.edf
        count = len(edf)
        latest = edf.snapshot(count - 1) if count else None
        return {
            "session": self.session_id,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "steps": self.steps,
            "snapshots": count,
            "t": latest.t if latest is not None else 0.0,
            "final": latest.is_final if latest is not None else False,
            "error": repr(self.error) if self.error is not None else None,
            "retries": self.retries_used,
            "degraded": self.degraded(),
            "cache_hit": False,
            "buffer": _buffer_status(self.buffer),
        }

    def __repr__(self) -> str:
        return (f"QuerySession({self.session_id!r}, {self.name!r}, "
                f"state={self.state.value})")


class AttachedSession:
    """A result-cache hit: a session that *replays* another session's
    snapshots instead of executing.

    Created by :meth:`FairShareScheduler.attach` when a submit's
    canonical plan hash matches an in-flight (or retained) primary
    session: the primary's retained snapshot prefix is seeded into this
    session's buffer at attach time and every later snapshot is fanned
    out by the primary's pump — all by reference, so an attach costs
    O(prefix snapshots) pointer appends and zero execution.  The
    subscriber-facing surface (``subscribe``/``status``/``degraded``)
    matches :class:`QuerySession`, so clients cannot tell (except via
    ``cache_hit``/``attached_to`` in ``status``) that nothing ran.

    Lifecycle: the attached session mirrors its primary — it reaches
    DONE/FAILED (same error) when the primary does.  ``cancel`` on an
    attached session merely *detaches* it (the primary and any other
    subscribers keep going); pause/resume are no-ops (there is no
    execution to deschedule).
    """

    def __init__(
        self,
        session_id: str,
        name: str,
        primary: QuerySession,
        buffer_size: int | None = None,
        buffer_metrics=None,
    ) -> None:
        self.session_id = session_id
        self.name = name
        self.primary = primary
        self.priority = primary.priority
        self.state = primary.state
        self.error: BaseException | None = None
        self.buffer = SnapshotBuffer(maxlen=buffer_size,
                                     metrics=buffer_metrics)
        self.plan_hash = primary.plan_hash
        self.submitted_at = time.monotonic()
        self.finished_at: float | None = None

    # -- mirrored views ------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def steps(self) -> int:
        """Partition-steps executed *by the primary* — this session
        itself never executes."""
        return self.primary.steps

    @property
    def quarantined(self) -> list:
        return self.primary.quarantined

    def subscribe(self, start: int = 0) -> Subscription:
        return Subscription(self.buffer, start=start)

    def degraded(self) -> dict | None:
        """Degradation is shared state: a partition quarantined in the
        primary is missing from every attached subscriber's answer."""
        return self.primary.degraded()

    def finish_from_primary(
        self,
        state: SessionState,
        error: BaseException | None = None,
    ) -> None:
        """The primary reached a terminal state; mirror it (called
        under the scheduler lock, via :meth:`QuerySession.finish`)."""
        self.state = state
        self.error = error
        self.buffer.close(error=error)
        self.finished_at = time.monotonic()

    def detach(self) -> None:
        """Stop mirroring (the attached session's ``cancel``): seal the
        buffer with what was replayed so far and leave the primary —
        and its other subscribers — untouched."""
        if self.terminal:
            return
        self.state = SessionState.CANCELLED
        if self in self.primary.fanout:
            self.primary.fanout.remove(self)
        self.buffer.close()
        self.finished_at = time.monotonic()

    def status(self) -> dict:
        """The wire ``status`` payload — same shape as
        :class:`QuerySession.status` plus the attach provenance."""
        count = len(self.buffer)
        latest = self.buffer.latest()
        return {
            "session": self.session_id,
            "name": self.name,
            "state": self.state.value,
            "priority": self.priority,
            "steps": self.steps,
            "snapshots": count,
            "t": latest.t if latest is not None else 0.0,
            "final": latest.is_final if latest is not None else False,
            "error": repr(self.error) if self.error is not None else None,
            "retries": self.primary.retries_used,
            "degraded": self.degraded(),
            "cache_hit": True,
            "attached_to": self.primary.session_id,
            "buffer": _buffer_status(self.buffer),
        }

    def __repr__(self) -> str:
        return (f"AttachedSession({self.session_id!r}, {self.name!r}, "
                f"primary={self.primary.session_id!r}, "
                f"state={self.state.value})")

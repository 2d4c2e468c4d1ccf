"""Query-lifecycle tracing: per-session span trees.

One :class:`SessionTrace` records a submitted query's life — submit →
build → optimize → per-step execute → snapshot publish — as a tree
of :class:`Span` intervals on the injectable monotonic clock, tagged
with the session id and canonical plan hash for correlation with the
metrics surface and ``status`` replies.

Retention is bounded twice over: per-trace, only the newest
``max_step_events`` step records are kept verbatim (aggregates —
count, total seconds — are exact over the whole run); per-tracer, only
the newest ``max_traces`` traces are retained (a ring over session
order), so a long-running server cannot grow without bound.

Export: :meth:`SessionTrace.to_dict` (JSON, the NDJSON ``trace`` op)
and :meth:`SessionTrace.render` (human-readable lines, the
``OptimizerTrace``-style debugging view).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator


class Span:
    """One named interval (possibly nested) on the trace clock."""

    __slots__ = ("name", "started", "ended", "attrs", "children")

    def __init__(self, name: str, started: float, **attrs) -> None:
        self.name = name
        self.started = started
        self.ended: float | None = None
        self.attrs = attrs
        self.children: list["Span"] = []

    @property
    def duration(self) -> float | None:
        if self.ended is None:
            return None
        return self.ended - self.started

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "started": self.started,
            "ended": self.ended,
            "duration": self.duration,
            "attrs": {k: v for k, v in self.attrs.items()},
            "children": [c.to_dict() for c in self.children],
        }


class SessionTrace:
    """The span tree + step/publish aggregates for one submit."""

    def __init__(
        self,
        name: str,
        clock: Callable[[], float] = time.monotonic,
        max_step_events: int = 128,
    ) -> None:
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        #: Correlation ids, set by the service once known.
        self.session_id: str | None = None
        self.plan_hash: str | None = None
        self.root = Span("query", clock())
        self._stack: list[Span] = [self.root]
        #: Newest step records: (step index, started, seconds).
        self.steps: deque[tuple[int, float, float]] = deque(
            maxlen=max_step_events
        )
        self.steps_total = 0
        self.step_seconds = 0.0
        self.publishes_total = 0

    # -- recording ----------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span under the innermost open span."""
        with self._lock:
            span = Span(name, self._clock(), **attrs)
            self._stack[-1].children.append(span)
            self._stack.append(span)
        try:
            yield span
        finally:
            with self._lock:
                span.ended = self._clock()
                if self._stack[-1] is span:
                    self._stack.pop()

    def record_step(self, index: int, seconds: float) -> None:
        """One executed partition-step (called by the scheduler; kept
        as a bounded ring + exact aggregates, not a span per step)."""
        with self._lock:
            self.steps.append((index, self._clock() - seconds, seconds))
            self.steps_total += 1
            self.step_seconds += seconds

    def record_publish(self, count: int) -> None:
        """``count`` snapshots moved into the session buffer."""
        with self._lock:
            self.publishes_total += count

    def finish(self, state: str | None = None) -> None:
        """Seal the root span (idempotent)."""
        with self._lock:
            if self.root.ended is None:
                self.root.ended = self._clock()
            if state is not None:
                self.root.attrs["state"] = state

    # -- export -------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return {
                "session": self.session_id,
                "name": self.name,
                "plan_hash": self.plan_hash,
                "steps_total": self.steps_total,
                "step_seconds": self.step_seconds,
                "publishes_total": self.publishes_total,
                "recent_steps": [
                    {"index": i, "started": s, "seconds": d}
                    for i, s, d in self.steps
                ],
                "spans": self.root.to_dict(),
            }

    def render(self) -> str:
        """Human-readable span tree + step aggregates."""
        with self._lock:
            lines = [
                f"trace {self.session_id or '?'} ({self.name})"
                + (f" plan={self.plan_hash[:12]}" if self.plan_hash
                   else ""),
            ]
            self._render_span(self.root, lines, indent=1)
            if self.steps_total:
                mean = self.step_seconds / self.steps_total
                lines.append(
                    f"  execute: {self.steps_total} step(s), "
                    f"{self.step_seconds * 1000.0:.1f} ms total, "
                    f"{mean * 1000.0:.2f} ms/step "
                    f"(last {len(self.steps)} retained)"
                )
            lines.append(
                f"  publish: {self.publishes_total} snapshot(s)"
            )
        return "\n".join(lines)

    def _render_span(self, span: Span, lines: list[str],
                     indent: int) -> None:
        base = self.root.started
        start = span.started - base
        dur = (f"{span.duration * 1000.0:.1f} ms"
               if span.duration is not None else "open")
        attrs = "".join(
            f" {k}={v}" for k, v in span.attrs.items()
        )
        lines.append(
            f"{'  ' * indent}{span.name} @{start * 1000.0:.1f} ms "
            f"[{dur}]{attrs}"
        )
        for child in span.children:
            self._render_span(child, lines, indent + 1)


def maybe_span(trace: "SessionTrace | None", name: str,
               **attrs) -> ContextManager:
    """``trace.span(...)`` when tracing, a no-op context otherwise —
    the one-liner instrumented call sites use."""
    if trace is None:
        return nullcontext()
    return trace.span(name, **attrs)


class Tracer:
    """Ring of retained :class:`SessionTrace` objects, keyed by
    session id once bound (insertion-ordered; oldest evicted)."""

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        max_traces: int = 64,
        max_step_events: int = 128,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._max_traces = max_traces
        self._max_step_events = max_step_events
        self._traces: "OrderedDict[str, SessionTrace]" = OrderedDict()

    def begin(self, name: str) -> SessionTrace:
        """A fresh trace for one submit (bind it to its session id with
        :meth:`bind` once the scheduler assigns one)."""
        return SessionTrace(name, clock=self._clock,
                            max_step_events=self._max_step_events)

    def bind(self, session_id: str, trace: SessionTrace) -> None:
        """Retain ``trace`` under ``session_id`` (evicting the oldest
        retained trace beyond the ring bound)."""
        trace.session_id = session_id
        with self._lock:
            self._traces[session_id] = trace
            self._traces.move_to_end(session_id)
            while len(self._traces) > self._max_traces:
                self._traces.popitem(last=False)

    def get(self, session_id: str) -> SessionTrace | None:
        with self._lock:
            return self._traces.get(session_id)

    def traces(self) -> list[SessionTrace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._traces.values())

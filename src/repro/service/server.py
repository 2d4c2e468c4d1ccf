"""Snapshot-streaming server: NDJSON over TCP (stdlib asyncio only).

Wire protocol — one JSON object per line, newline-terminated, in both
directions.  Requests carry an ``op``:

* ``{"op": "submit", "query": "q06", "params": {...}, "priority": 2}``
  → ``{"ok": true, "session": "s1", ...}``.  Optional fields:
  ``pushdown``, ``name``, ``paused``, ``scan_share``, ``result_cache``;
  any other field, or a non-boolean ``paused`` / ``pushdown`` /
  ``scan_share`` / ``result_cache``, is an error reply.
* ``{"op": "status"}`` (all sessions) or
  ``{"op": "status", "session": "s1"}``
* ``{"op": "pause" | "resume" | "cancel", "session": "s1"}``
* ``{"op": "prune", "keep_latest": 4}`` — drop finished sessions
  (their retained snapshot history) so long-running servers reclaim
  memory; returns the removed session ids.
* ``{"op": "metrics"}`` — the observability report: steps/s, retry/
  backoff counts, partitions read/pruned/quarantined, scan-share and
  result-cache counters, per-session snapshot lag and subscriber
  counts, plus the full registry series dump.
  ``"format": "prometheus"`` returns the text exposition in a
  ``prometheus`` field instead; a
  plain HTTP ``GET /metrics`` on the same port gets the text format
  directly (one-shot, for Prometheus scrapers).
* ``{"op": "trace"}`` (retained trace summaries) or
  ``{"op": "trace", "session": "s1"}`` (one session's full span tree:
  submit → validate → optimize → per-step execute → publish).
* ``{"op": "subscribe", "session": "s1", "start": 0,
  "include_frame": true}`` (``include_frame`` a boolean) → an ack
  line, then one ``{"event": "snapshot", ...}`` line per snapshot *as
  it is published*
  (snapshots before ``start`` are replayed from the query's edf),
  terminated by ``{"event": "end", "state": "done" | "cancelled" |
  "failed", "error": ...}``.  Every published snapshot is delivered:
  a slow subscriber falls behind but never skips one.  A
  ``degraded`` field appears once skip-and-degrade mode quarantines
  partitions (see :mod:`repro.service.retry`), and a FAILED session's
  stream always terminates with the ``end`` event carrying its error.

Execution happens on the scheduler's loop thread; the asyncio loop only
shuttles lines and never waits out a step.  Control ops reply at the
next step boundary (``submit`` plans before it waits);
``status`` / ``metrics`` / ``trace`` reply at once.  A stalled client
connection never blocks query progress (subscription reads run in the
default thread-pool executor against the session's snapshot buffer).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future
from typing import Callable, Mapping

from repro.api.context import WakeContext
from repro.api.frame_api import EdfFrame
from repro.api.options import ExecutionOptions
from repro.core.edf import EdfSnapshot
from repro.errors import PlanValidationError, QueryError
from repro.obs import (
    MetricsRegistry,
    ServiceInstruments,
    Tracer,
    maybe_span,
)
from repro.service.retry import RetryPolicy
from repro.service.scanshare import ScanShareManager
from repro.service.scheduler import FairShareScheduler
from repro.service.session import (
    AttachedSession,
    QuerySession,
    SessionState,
)

#: Poll interval for subscription reads — short enough that server
#: shutdown and client disconnects are noticed promptly.
_SUBSCRIBE_POLL = 0.1

#: Every field a wire ``submit`` may carry.  Anything else is rejected
#: rather than dropped, so a misspelled or retired option cannot
#: silently run with the server's default.
SUBMIT_FIELDS = ("op", "query", "params", "priority", "pushdown", "name",
                 "paused", "scan_share", "result_cache")


def tpch_plan_registry() -> dict[str, Callable[..., EdfFrame]]:
    """The default plan registry: the 22 TPC-H queries as ``q01``…``q22``
    (with unpadded ``q1``… aliases)."""
    from repro.tpch.queries import QUERIES

    registry: dict[str, Callable[..., EdfFrame]] = {}
    for number, query in QUERIES.items():
        def factory(ctx: WakeContext, _query=query, **params) -> EdfFrame:
            return _query.build_plan(ctx, **params)

        registry[f"q{number:02d}"] = factory
        registry[f"q{number}"] = factory
    return registry


class QueryService:
    """A WakeContext + plan registry + fair-share scheduler: the
    process-wide multi-query engine the server (or an embedding
    application) drives.

    Two multi-query optimizations live at this layer, both off by
    default and switched through :class:`ExecutionOptions` (``options=``
    here sets the service default — the context's when omitted — and
    ``options=`` on :meth:`submit` replaces it for one submit):

    * ``scan_share`` — every submitted executor joins the service-wide
      :class:`~repro.service.scanshare.ScanShareManager`, so concurrent
      queries over the same table pay one physical read per (table,
      partition, column-superset).
    * ``result_cache`` — submits are keyed by the canonical
      :func:`~repro.engine.plan_node.plan_hash` of their *optimized*
      plan alone (it holds every option that can change result
      bytes, such as the aggregates' quantile settings); a key match *attaches* to the in-flight or retained session —
      reading its edf, O(1), zero execution — instead of
      re-executing.  The cache is advisory: entries whose session
      failed, was cancelled or was pruned fall back to a fresh
      execution (and re-prime the cache).  After mutating the
      catalog's underlying files, call :meth:`invalidate_cache` — the
      plan hash keys table *names*, not file contents.
    """

    def __init__(
        self,
        ctx: WakeContext,
        plans: Mapping[str, Callable[..., EdfFrame]] | None = None,
        retry: RetryPolicy | None = None,
        options: ExecutionOptions | None = None,
    ) -> None:
        self.ctx = ctx
        self.plans = (dict(plans) if plans is not None
                      else tpch_plan_registry())
        #: Service-default execution options (the context's unless
        #: given); a submit's own ``options=`` replaces them.
        self.options = options if options is not None else ctx.options
        # Telemetry (metrics registry + tracer) is a service-level
        # switch read from the service options (the ``repro serve``
        # default is ON).  The sequence of snapshots a query produces
        # is byte-identical either way — telemetry only ever
        # *observes* (see benchmarks/bench_obs_overhead.py).
        if self.options.telemetry:
            self.registry: MetricsRegistry | None = MetricsRegistry()
            self.instruments: ServiceInstruments | None = (
                ServiceInstruments(self.registry))
            self.tracer: Tracer | None = Tracer(
                clock=self.registry.clock)
        else:
            self.registry = None
            self.instruments = None
            self.tracer = None
        self.scheduler = FairShareScheduler(retry=retry,
                                            metrics=self.instruments)
        #: Service-wide shared-scan pool (active only for sessions
        #: submitted with ``scan_share=True``).
        self.scan_share = ScanShareManager()
        self._cache_lock = threading.Lock()
        #: Plan hash -> primary session id.
        self._result_cache: dict[str, str] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        if self.registry is not None:
            self._register_views()

    def _register_views(self) -> None:
        """Expose counters whose single source of truth lives elsewhere
        (scan-share pool, result cache, scheduler, per-session buffers)
        as collection-time registry views — no shadow counters, so the
        report's headline fields and its series cannot drift."""
        registry = self.registry
        assert registry is not None
        share = self.scan_share

        def share_stat(key: str):
            return lambda: share.stats()[key]

        registry.register_view(
            "repro_scan_share_physical_reads_total",
            share_stat("physical_reads"), kind="counter",
            help="partition reads paid by the shared-scan pool",
        )
        registry.register_view(
            "repro_scan_share_hits_total",
            share_stat("shared_hits"), kind="counter",
            help="partition fetches served from the shared-scan pool",
        )
        registry.register_view(
            "repro_scan_share_evictions_total",
            share_stat("lru_evictions"), kind="counter",
            help="shared-scan pool LRU evictions",
        )
        registry.register_view(
            "repro_result_cache_hits_total",
            lambda: self.cache_stats()["hits"], kind="counter",
            help="submits that attached to a cached identical session",
        )
        registry.register_view(
            "repro_result_cache_misses_total",
            lambda: self.cache_stats()["misses"], kind="counter",
            help="cache-enabled submits that executed for themselves",
        )
        registry.register_view(
            "repro_result_cache_entries",
            lambda: self.cache_stats()["entries"],
            help="live plan-hash result-cache entries",
        )
        registry.register_view(
            "repro_run_queue_depth", self.scheduler.run_queue_depth,
            help="sessions currently runnable",
        )
        registry.register_view(
            "repro_vclock_skew", self.scheduler.vclock_skew,
            help="virtual-time spread across runnable sessions "
                 "(stride-scheduling fairness)",
        )
        registry.register_view(
            "repro_sessions",
            lambda: [
                ({"state": state}, count)
                for state, count in self._sessions_by_state().items()
            ],
            help="registered sessions by lifecycle state",
        )
        registry.register_view(
            "repro_session_snapshot_lag_seconds",
            lambda: [
                ({"session": s.session_id}, s.buffer.last_lag)
                for s in self.scheduler.sessions()
                if s.buffer.last_lag is not None
            ],
            help="latest produce-to-consume delay per session",
        )

    def _sessions_by_state(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for session in self.scheduler.sessions():
            key = session.state.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    def metrics_report(self) -> dict:
        """The NDJSON ``metrics`` payload: a curated headline section
        (the quantities an operator reaches for first) plus the full
        registry series dump.  Always-on fields (scan share, cache,
        per-session buffer health) are reported even with telemetry
        off, under ``"enabled": false``."""
        sessions: dict[str, dict] = {}
        for session in self.scheduler.sessions():
            buffer = session.buffer
            sessions[session.session_id] = {
                "name": session.name,
                "state": session.state.value,
                "steps": session.steps,
                "snapshots": len(buffer),
                "snapshot_lag_seconds": buffer.last_lag,
                "subscribers": buffer.subscribers,
            }
        cache = self.cache_stats()
        report: dict = {
            "enabled": self.registry is not None,
            "scan_share": dict(self.scan_share.stats()),
            "cache": cache,
            "run_queue_depth": self.scheduler.run_queue_depth(),
            "vclock_skew": self.scheduler.vclock_skew(),
            "sessions": sessions,
        }
        if self.registry is None or self.instruments is None:
            return report
        registry, instruments = self.registry, self.instruments
        uptime = registry.uptime()
        steps = instruments.scheduler.steps.value
        report.update({
            "uptime_seconds": uptime,
            "steps_total": steps,
            "steps_per_second": (steps / uptime if uptime > 0
                                 else 0.0),
            "retries_total": instruments.scheduler.retries.value,
            "backoff_seconds_total":
                instruments.scheduler.backoff_seconds.value,
            "partitions_quarantined_total":
                instruments.scheduler.quarantines.value,
            "partitions_read_total":
                instruments.scan.partitions_read.value,
            "partitions_pruned_total":
                instruments.scan.partitions_pruned.value,
            "scan_rows_total": instruments.scan.rows_read.value,
            "scan_bytes_total": instruments.scan.bytes_read.value,
            "snapshots_published_total":
                instruments.buffer.snapshots.value,
            # Every published snapshot is delivered, so nothing is
            # ever dropped; the field stays for the end-to-end
            # benchmark that reads it (ROADMAP item 6(a) retires it).
            "buffer_drops_total": 0,
            "series": registry.to_dict(),
        })
        return report

    def submit(
        self,
        query: str,
        params: Mapping | None = None,
        priority: float = 1.0,
        name: str | None = None,
        paused: bool = False,
        options: ExecutionOptions | None = None,
    ) -> QuerySession | AttachedSession:
        """Build the named plan and register it with the scheduler —
        or, with the result cache on and a plan-hash match against a
        live/retained identical session, attach to it instead.
        ``options`` (default: the service's) tunes this submit."""
        return self._submit(query, params, priority, name, paused,
                            options).result()

    def _submit(self, query, params, priority, name, paused,
                options) -> Future:
        """:meth:`submit` in two halves: plan on this thread, then return
        the future of the registration, one scheduler command."""
        try:
            factory = self.plans[query]
        except KeyError:
            known = ", ".join(sorted(self.plans))
            raise QueryError(
                f"unknown query {query!r}; known: {known}"
            ) from None
        opts = options if options is not None else self.options
        name = name or query
        trace = (self.tracer.begin(name)
                 if self.tracer is not None else None)
        with maybe_span(trace, "submit", query=query):
            with maybe_span(trace, "build"):
                frame = factory(self.ctx, **dict(params or {}))
            executor = self.ctx.executor_for(frame, options=opts,
                                             trace=trace)
        # The *optimized* graph's hash is the whole key: pushdown
        # structure and the aggregates' quantile settings are part of
        # it, so differently-tuned submits never collide.
        digest = executor.plan_hash
        if trace is not None:
            trace.plan_hash = digest

        def register() -> QuerySession | AttachedSession:
            # ``paused`` submits bypass the cache entirely: an attach
            # replays instead of executing, which cannot be paused, and
            # a paused primary would stall its attachers.
            if opts.result_cache and not paused:
                with maybe_span(trace, "cache_lookup") as span:
                    attached = self._try_attach(digest, name)
                    if span is not None:
                        span.attrs["hit"] = attached is not None
                if attached is not None:
                    executor.close()  # the planned run never starts
                    if trace is not None and self.tracer is not None:
                        trace.root.attrs["cache_hit"] = True
                        trace.finish(state="attached")
                        self.tracer.bind(attached.session_id, trace)
                    return attached
            if opts.scan_share:
                executor.scan_share = self.scan_share
            if self.instruments is not None:
                executor.scan_metrics = self.instruments.scan
            session = self.scheduler.submit(executor, name, priority,
                                            paused, trace=trace)
            session.plan_hash = digest
            if trace is not None and self.tracer is not None:
                self.tracer.bind(session.session_id, trace)
            if opts.result_cache and not paused:
                with self._cache_lock:
                    self._result_cache[digest] = session.session_id
            return session

        return self.scheduler._command(register)

    def _try_attach(
        self, digest: str, name: str
    ) -> AttachedSession | None:
        """Attach to the cached session for plan hash ``digest`` if it is
        still usable; any dead entry (pruned, failed, cancelled) counts
        as a miss and is dropped."""
        with self._cache_lock:
            primary_id = self._result_cache.get(digest)
        attached = None
        if primary_id is not None:
            try:
                primary = self.scheduler.get(primary_id)
            except QueryError:
                primary = None  # pruned
            if (
                isinstance(primary, QuerySession)
                and primary.state not in (SessionState.FAILED,
                                          SessionState.CANCELLED)
            ):
                attached = self.scheduler.attach(primary, name=name)
        with self._cache_lock:
            if attached is None:
                self._cache_misses += 1
                if (primary_id is not None
                        and self._result_cache.get(digest) == primary_id):
                    del self._result_cache[digest]
            else:
                self._cache_hits += 1
        return attached

    def cache_stats(self) -> dict:
        """Result-cache counters for the ``metrics`` report."""
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "entries": len(self._result_cache),
            }

    def invalidate_cache(self) -> int:
        """Drop every result-cache entry (call after catalog files
        change under an unchanged table name); returns how many entries
        were dropped.  In-flight sessions are unaffected — only future
        submits stop attaching."""
        with self._cache_lock:
            dropped = len(self._result_cache)
            self._result_cache.clear()
            return dropped

    def start(self) -> None:
        self.scheduler.start()

    def stop(self) -> None:
        self.scheduler.stop()


def snapshot_event(
    session: QuerySession | AttachedSession,
    snapshot: EdfSnapshot,
    include_frame: bool = True,
) -> dict:
    """Serialize one snapshot as a wire event."""
    event = {
        "event": "snapshot",
        "session": session.session_id,
        "name": session.name,
        "sequence": snapshot.sequence,
        "t": snapshot.t,
        "wall_time": snapshot.wall_time,
        "rows_processed": snapshot.rows_processed,
        "n_rows": snapshot.frame.n_rows,
        "final": snapshot.is_final,
    }
    degraded = session.degraded()
    if degraded is not None:
        # Skip-and-degrade mode: the answer is refining but is missing
        # the quarantined partitions' rows — subscribers must know.
        event["degraded"] = degraded
    if include_frame:
        event["columns"] = snapshot.frame.to_pydict()
    return event


def _flag(request: dict, field: str, default: bool) -> bool:
    """A boolean wire field: JSON ``true`` / ``false`` only, so a
    truthy string such as ``"false"`` is rejected, not obeyed."""
    value = request.get(field, default)
    if not isinstance(value, bool):
        raise QueryError(f"{field} must be a boolean, got {value!r}")
    return value


def _encode(payload: dict) -> bytes:
    # default=str covers numpy scalars / datetimes in frame columns.
    return (json.dumps(payload, default=str) + "\n").encode()


class SnapshotServer:
    """Asyncio TCP front-end over a :class:`QueryService`.

    Use ``asyncio.run(server.serve())`` for a foreground server (the
    CLI), or ``start()``/``stop()`` to run it on a background thread
    with its own event loop (tests, notebooks, the demo)."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; updated once listening
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    # -- request handling ---------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                if line.startswith(b"GET "):
                    # One-shot Prometheus scrape: a plain HTTP GET on
                    # the NDJSON port (GET never starts a JSON line, so
                    # the protocols coexist).  Reply and close — HTTP
                    # keep-alive is not supported.
                    await self._serve_http_get(line, writer)
                    return
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    writer.write(_encode(
                        {"ok": False, "error": f"bad request: {exc}"}
                    ))
                    await writer.drain()
                    continue
                try:
                    await self._dispatch(request, reader, writer)
                except PlanValidationError as exc:
                    # Static validation rejected the plan at submit:
                    # the reply carries the structured detail (code,
                    # offending node + column) instead of the session
                    # failing mid-stream with a terminal ``end``.
                    writer.write(_encode({
                        "ok": False,
                        "error": str(exc),
                        "detail": exc.to_dict(),
                    }))
                except (QueryError, KeyError, TypeError,
                        ValueError) as exc:
                    # Wire fields are untrusted: a bad priority/params/
                    # start must produce an error reply, not kill the
                    # connection.
                    writer.write(_encode({"ok": False,
                                          "error": str(exc)}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown: complete normally so the loop's
            # connection callback doesn't log a spurious error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_http_get(
        self, request_line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Answer ``GET /metrics`` with the Prometheus text format
        (anything else is a 404); the connection closes after the
        response, which is all a scrape needs."""
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else ""
        registry = self.service.registry
        if path in ("/metrics", "/metrics/") and registry is not None:
            body = registry.render_prometheus().encode()
            head = (
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4; "
                "charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        else:
            body = (b"telemetry disabled\n"
                    if registry is None else b"not found\n")
            status = ("503 Service Unavailable" if registry is None
                      else "404 Not Found")
            head = (
                f"HTTP/1.0 {status}\r\n"
                "Content-Type: text/plain\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _dispatch(
        self,
        request: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        op = request.get("op")
        scheduler = self.service.scheduler
        if op == "submit":
            if "query" not in request:
                raise QueryError("submit needs a 'query'")
            unknown = sorted(set(request) - set(SUBMIT_FIELDS))
            if unknown:
                raise QueryError(
                    f"submit has no field {', '.join(unknown)}; valid "
                    f"fields: {', '.join(SUBMIT_FIELDS)}"
                )
            # The wire's option fields override the service defaults
            # through the options bundle's own validation, so a
            # non-boolean (say the string "false") is an error reply
            # before anything is planned or registered.
            options = self.service.options.merged(
                pushdown=request.get("pushdown"),
                scan_share=request.get("scan_share"),
                result_cache=request.get("result_cache"),
            )
            # Planned here, overlapping the running step; only the
            # registration waits for the step boundary, as a command.
            session = await asyncio.wrap_future(self.service._submit(
                str(request["query"]), request.get("params"),
                float(request.get("priority", 1.0)), request.get("name"),
                _flag(request, "paused", False), options))
            writer.write(_encode({"ok": True, **session.status()}))
        elif op == "status":
            if "session" in request:
                session = scheduler.get(str(request["session"]))
                writer.write(_encode({"ok": True, **session.status()}))
            else:
                # Cache and scan-share counters live on the ``metrics``
                # op, not here.
                writer.write(_encode({
                    "ok": True,
                    "sessions": [s.status()
                                 for s in scheduler.sessions()],
                }))
        elif op == "metrics":
            fmt = request.get("format", "json")
            if fmt == "prometheus":
                registry = self.service.registry
                if registry is None:
                    raise QueryError(
                        "telemetry is disabled on this server; start "
                        "it with ExecutionOptions(telemetry=True) or "
                        "`repro serve --metrics`"
                    )
                writer.write(_encode({
                    "ok": True,
                    "prometheus": registry.render_prometheus(),
                }))
            elif fmt == "json":
                writer.write(_encode({
                    "ok": True,
                    **self.service.metrics_report(),
                }))
            else:
                raise QueryError(
                    f"unknown metrics format {fmt!r}; expected "
                    f"'json' or 'prometheus'"
                )
        elif op == "trace":
            tracer = self.service.tracer
            if tracer is None:
                raise QueryError(
                    "telemetry is disabled on this server; start it "
                    "with ExecutionOptions(telemetry=True) or "
                    "`repro serve --metrics`"
                )
            if "session" in request:
                trace = tracer.get(str(request["session"]))
                if trace is None:
                    raise QueryError(
                        f"no trace retained for session "
                        f"{request['session']!r}"
                    )
                writer.write(_encode({"ok": True,
                                      "trace": trace.to_dict()}))
            else:
                writer.write(_encode({
                    "ok": True,
                    "traces": [
                        {
                            "session": t.session_id,
                            "name": t.name,
                            "plan_hash": t.plan_hash,
                            "steps_total": t.steps_total,
                        }
                        for t in tracer.traces()
                    ],
                }))
        elif op in ("pause", "resume", "cancel"):
            if "session" not in request:
                raise QueryError(f"{op} needs a 'session'")
            session_id = str(request["session"])
            state = await asyncio.wrap_future(
                scheduler._command(getattr(scheduler, op), session_id))
            writer.write(_encode({"ok": True, "session": session_id,
                                  "state": state.value}))
        elif op == "prune":
            removed = await asyncio.wrap_future(scheduler._command(
                scheduler.prune, int(request.get("keep_latest", 0))))
            writer.write(_encode({"ok": True, "removed": removed}))
        elif op == "subscribe":
            if "session" not in request:
                raise QueryError("subscribe needs a 'session'")
            session = scheduler.get(str(request["session"]))
            start = int(request.get("start", 0))
            include_frame = _flag(request, "include_frame", True)
            writer.write(_encode({"ok": True, "subscribed":
                                  session.session_id}))
            await writer.drain()
            await self._stream_snapshots(
                session, reader, writer,
                start=start, include_frame=include_frame,
            )
        else:
            raise QueryError(f"unknown op {op!r}")

    async def _stream_snapshots(
        self,
        session: QuerySession | AttachedSession,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        start: int,
        include_frame: bool,
    ) -> None:
        """Stream published + live snapshots until the session ends."""
        loop = asyncio.get_running_loop()
        subscription = session.subscribe(start=start)
        while True:
            # A subscriber that disconnects while the session is idle
            # (paused, or between snapshots) would otherwise keep this
            # polling coroutine alive until server shutdown.
            if reader.at_eof() or writer.is_closing():
                return
            snapshot = await loop.run_in_executor(
                None, subscription.next, _SUBSCRIBE_POLL
            )
            if snapshot is not None:
                writer.write(_encode(snapshot_event(
                    session, snapshot, include_frame=include_frame,
                )))
                await writer.drain()
                continue
            if subscription.finished:
                writer.write(_encode({
                    "event": "end",
                    "session": session.session_id,
                    "state": session.state.value,
                    "error": (repr(session.error)
                              if session.error is not None else None),
                }))
                await writer.drain()
                return

    # -- foreground mode ----------------------------------------------------------
    async def serve(self) -> None:
        """Start the scheduler and serve until cancelled (CLI mode)."""
        self.service.start()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        try:
            async with server:
                await server.serve_forever()
        finally:
            self.service.stop()

    # -- background-thread mode ---------------------------------------------------
    def start(self) -> "SnapshotServer":
        """Serve on a daemon thread with a private event loop; returns
        once the socket is listening (``self.port`` is then bound)."""
        if self._thread is not None:
            return self
        self.service.start()
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(asyncio.start_server(
                    self._handle_connection, self.host, self.port
                ))
            except BaseException as exc:  # noqa: BLE001 - surfaced to start()
                failure.append(exc)
                started.set()
                loop.close()
                return
            self.port = server.sockets[0].getsockname()[1]
            started.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    loop.run_until_complete(asyncio.gather(
                        *tasks, return_exceptions=True
                    ))
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="wake-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread = None
            self.service.stop()
            raise failure[0]
        return self

    def stop(self) -> None:
        """Stop the background server and the scheduler thread."""
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=10)
        self.service.stop()

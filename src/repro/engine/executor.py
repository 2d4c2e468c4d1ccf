"""The query executor (paper §7.2 "Execution Engine").

:class:`StepExecutor` drives a :class:`QueryGraph` and collects the
output node's message stream into an :class:`EvolvingDataFrame`.  It is
single-threaded and deterministic: priority-0 sources (hash-join build
subtrees) drain fully, then the remaining sources round-robin one
partition at a time, every message flushed breadth-first through the
graph.  ``run()``, ``WakeContext.stream()`` and the multi-query service
all step this one engine, so their snapshot sequences are identical.

Estimates are pull-driven: before each step the executor tells every
operator whether a reader wants each version it builds
(``Operator.versions_wanted``).  The sink wants every version with
``capture_all=True``, and with ``capture_all=False`` every version until
its first snapshot, then only the final; each operator's
``reads_versions`` declarations carry that upstream.  A shuffle
aggregate skips ``infer`` for an unwanted t < 1 version and emits
nothing, so a version nobody reads costs no refresh downstream either.
The snapshots a reader does see are unchanged.
"""

from __future__ import annotations

import time
from collections import deque

from repro.dataframe.frame import DataFrame
from repro.core.edf import EdfSnapshot, EvolvingDataFrame
from repro.core.properties import Delivery
from repro.engine.graph import QueryGraph
from repro.engine.message import Eof, Message
from repro.engine.ops.base import SourceOperator


class _SinkState:
    """Accumulates the output node's messages into edf snapshots."""

    def __init__(self, name: str, delivery: Delivery, capture_all: bool,
                 started_at: float) -> None:
        self.edf = EvolvingDataFrame(name)
        self._delivery = delivery
        self._capture_all = capture_all
        #: Origin of every snapshot's ``wall_time``.
        self.started_at = started_at
        self._parts: list[DataFrame] = []
        self._latest: DataFrame | None = None
        self._sequence = 0
        self._pending: Message | None = None
        # Concat-of-everything-seen-so-far cache: per snapshot only the
        # parts that arrived since the last materialization are appended,
        # instead of re-concatenating the whole APPEND stream each time.
        # Folded-in parts are released (the cache is the only copy).
        self._cached: DataFrame | None = None

    def accept(self, message: Message) -> None:
        if message.kind == Delivery.REPLACE:
            self._latest = message.frame
            self._parts = []
            self._cached = None
        else:
            self._parts.append(message.frame)
        if self._capture_all or self._sequence == 0:
            self._snapshot(message)
            self._pending = None
        else:
            self._pending = message

    def _current_frame(self) -> DataFrame:
        if not self._parts:
            if self._cached is not None:
                return self._cached
            if self._latest is not None:
                return self._latest
            return DataFrame.concat([])  # preserves the seed's error
        base = ([self._cached] if self._cached is not None
                else [] if self._latest is None else [self._latest])
        frame = DataFrame.concat(base + self._parts)
        self._cached = frame
        self._parts = []
        return frame

    def _snapshot_from_progress(self, progress) -> None:
        frame = self._current_frame()
        self.edf.append(
            EdfSnapshot(
                frame=frame,
                progress=progress,
                sequence=self._sequence,
                wall_time=time.perf_counter() - self.started_at,
                rows_processed=sum(progress.done.values()),
            )
        )
        self._sequence += 1

    def _snapshot(self, message: Message) -> None:
        self._snapshot_from_progress(message.progress)

    def finish(self, final_progress=None) -> None:
        """Materialize any pending snapshot; if the stream ended without a
        progress-complete message (e.g. trailing empty flushes were
        suppressed upstream), seal the edf with a final snapshot carrying
        the output operator's completed progress."""
        if self._pending is not None:
            self._snapshot(self._pending)
            self._pending = None
        if (
            final_progress is not None
            and final_progress.is_complete
            and len(self.edf)
            and not self.edf.is_final
        ):
            self._snapshot_from_progress(final_progress)


def _append_empty_final(sink: "_SinkState", schema, progress) -> None:
    """Queries whose operators never emit (fully filtered inputs) still
    deliver one final, empty, exact snapshot."""
    sink.edf.append(
        EdfSnapshot(
            frame=DataFrame.empty(schema),
            progress=progress,
            sequence=0,
            wall_time=time.perf_counter() - sink.started_at,
            rows_processed=sum(progress.done.values()),
        )
    )


class StepExecutor:
    """Resumable single-threaded executor; the unit of work is one
    source partition.

    ``step()`` consumes one partition from one source (or, once a source
    is exhausted, dispatches its EOF), flushes it breadth-first through
    the graph, and returns control to the caller.  Dispatch order
    depends only on the plan — build-side sources drain fully first,
    the rest round-robin one partition at a time — so snapshot
    sequences are byte-identical to a run-to-EOF execution no matter
    how the steps are interleaved with other queries'.  This is the
    scheduling quantum of the multi-query service
    (:mod:`repro.service`).

    Construction binds the plan and creates the output ``edf`` — cheap,
    no I/O — so the executor is complete before any other thread can
    see it (the service reads ``edf`` from its wire thread while the
    scheduler thread steps).  Read streams open on the first ``step()``
    (submission does not open files), which is also where snapshot
    ``wall_time`` starts counting; ``close()`` abandons a run
    mid-flight, closing every open read stream and releasing operator
    state, while the collected ``edf`` stays readable.

    **Fault tolerance contract.**  A ``step()`` that raises falls into
    one of two classes, exposed via :attr:`step_retry_safe`:

    * the failure happened while *pulling* the next partition from a
      source (the read itself) — no executor or operator state advanced,
      the source cursor is still on the failed partition, and calling
      ``step()`` again retries exactly that partition
      (``step_retry_safe`` is ``True``);
    * the failure happened while *dispatching* a message through the
      graph — operator state may be half-updated and a retry would
      double-process (``step_retry_safe`` is ``False``).

    After a retry-safe failure, :meth:`quarantine_current` arms the
    skip-and-degrade path: the next step skips the failing partition,
    emitting the empty progress-advancing DELTA the pruning path uses,
    and the skip is recorded in :attr:`quarantined`.
    """

    def __init__(
        self,
        graph: QueryGraph,
        output: int,
        capture_all: bool = True,
    ) -> None:
        graph.validate_output(output)
        self.graph: QueryGraph | None = graph
        self.output = output
        self.capture_all = capture_all
        #: Canonical hash of the optimized plan this executor runs (set
        #: by ``WakeContext.executor_for``; ``None`` when built directly).
        self.plan_hash: str | None = None
        self._sink = _SinkState(
            name=graph.node(output).operator.name,
            delivery=graph.resolve()[output].delivery,
            capture_all=capture_all,
            started_at=0.0,  # re-anchored when the streams open
        )
        #: The live output edf; snapshots appear as steps execute.
        self.edf: EvolvingDataFrame = self._sink.edf
        self._subscribers: dict[int, list[tuple[int, int]]] | None = None
        self._streams: dict[int, object] = {}
        self._build: deque[int] = deque()
        self._round_robin: deque[int] = deque()
        self._opened = False
        #: What the sink last asked of the output: every version
        #: (``True``) or only the final (``False``); ``None`` before
        #: the first step.
        self._sink_wants: bool | None = None
        self._finished = False
        self._closed = False
        self._steps = 0
        self._retry_safe = False
        self._failed_source: int | None = None
        #: Partitions skipped by the fault-tolerance skip-and-degrade
        #: path (``QuarantinedPartition`` records, in skip order).
        self.quarantined: list = []
        #: Test seam (fault injection): when set, called with this
        #: executor at the top of every step, before any state advances
        #: — an exception raised here is always retry-safe.
        self.before_step = None
        #: Optional shared-scan pool (a
        #: :class:`repro.service.scanshare.ScanShareManager`) injected
        #: by the service before the first step: every scan source
        #: opened by this executor subscribes to it, so concurrent
        #: queries share one physical read per (table, partition,
        #: column-superset).  ``None`` keeps scans private.
        self.scan_share = None
        #: Optional :class:`repro.obs.instruments.ScanInstruments`
        #: bundle injected by the service (same pattern as
        #: ``scan_share``): scans opened by this executor count
        #: partitions read/pruned, rows, and bytes into it.
        self.scan_metrics = None
        #: Optional :class:`repro.obs.profile.OperatorProfiler`: when
        #: set, every dispatch (and every source pull, attributed to
        #: the scan operator) records its wall time and input rows.
        self.profiler = None

    # -- lazy setup ---------------------------------------------------------------
    def _open_streams(self) -> None:
        if self._opened:
            return
        self._opened = True
        graph = self.graph
        assert graph is not None
        self._sink.started_at = time.perf_counter()
        self._subscribers = graph.subscribers()
        # Sources: drain priority-0 (build sides) fully, then round-robin.
        priorities = graph.source_priorities()
        for source_id in graph.source_ids():
            op = graph.node(source_id).operator
            assert isinstance(op, SourceOperator)
            if self.scan_share is not None and hasattr(op, "scan_share"):
                # Inject the service's shared-scan pool right before the
                # stream opens (streams subscribe at construction).
                op.scan_share = self.scan_share
            if (self.scan_metrics is not None
                    and hasattr(op, "scan_metrics")):
                op.scan_metrics = self.scan_metrics
            self._streams[source_id] = op.stream()
        self._build = deque(
            s for s in self._streams if priorities[s] == 0
        )
        self._round_robin = deque(
            s for s in self._streams if priorities[s] == 1
        )

    # -- introspection ------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once every source hit EOF and the edf was sealed."""
        return self._finished

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def steps(self) -> int:
        """Partition-steps (incl. EOF dispatches) executed so far."""
        return self._steps

    @property
    def step_retry_safe(self) -> bool:
        """True when the last failed ``step()`` stopped before any state
        advanced (the pull raised), so re-stepping retries the same
        partition instead of corrupting operator state."""
        return self._retry_safe

    # -- stepping -----------------------------------------------------------------
    def step(self) -> bool:
        """Advance by one quantum: dispatch one source partition (or one
        source EOF) through the graph.  Returns ``False`` iff the query
        had already finished or was closed (no work was done)."""
        if self._finished or self._closed:
            return False
        if self.before_step is not None:
            self._retry_safe = True
            self._failed_source = None
            self.before_step(self)
        self._retry_safe = False
        self._failed_source = None
        self._open_streams()
        sink_wants = self.capture_all or not len(self.edf)
        if sink_wants is not self._sink_wants:
            self._sink_wants = sink_wants
            self._set_demand(sink_wants)
        if self._build:
            source_id = self._build[0]
            if not self._pump(source_id):
                self._build.popleft()
        elif self._round_robin:
            # Peek, pump, then rotate: a pull failure leaves the deque
            # untouched, so a retried step targets the same source (and
            # the source cursor the same partition).
            source_id = self._round_robin[0]
            alive = self._pump(source_id)
            self._round_robin.popleft()
            if alive:
                self._round_robin.append(source_id)
        self._steps += 1
        if not self._build and not self._round_robin:
            self._finalize()
        return True

    def _set_demand(self, sink_wants: bool) -> None:
        """Tell every operator whether a reader wants each version it
        builds: the sink (``sink_wants``) for the output node, and for
        every other node whether any subscriber port
        (``Operator.reads_versions``) wants it.  Node ids are
        topological, so one pass from the highest id settles every
        consumer before its producers."""
        graph = self.graph
        subscribers = self._subscribers
        assert graph is not None and subscribers is not None
        wanted: dict[int, bool] = {}
        for nid in sorted(graph.nodes, reverse=True):
            want = sink_wants and nid == self.output
            for sub_id, port in subscribers[nid]:
                if want:
                    break
                want = graph.node(sub_id).operator.reads_versions(
                    port, wanted[sub_id])
            wanted[nid] = want
            graph.node(nid).operator.versions_wanted = want

    def _pump(self, source_id: int) -> bool:
        """One partition from ``source_id``; False once it hits EOF."""
        profiler = self.profiler
        started = time.perf_counter() if profiler is not None else 0.0
        try:
            message = next(self._streams[source_id])  # type: ignore[arg-type]
        except StopIteration:
            self._emit_source_eof(source_id)
            return False
        except BaseException:
            # The pull advanced nothing (the source cursor is still on
            # the failed partition), so this failure is retryable.
            self._retry_safe = True
            self._failed_source = source_id
            raise
        if profiler is not None:
            # Attribute the pull (read + decompress) to the source
            # operator; downstream dispatch time lands in _dispatch.
            assert self.graph is not None
            profiler.record(
                self.graph.node(source_id).operator.name,
                time.perf_counter() - started,
                message.frame.n_rows,
            )
        self._emit_from_source(source_id, message)
        return True

    def quarantine_current(self):
        """Skip the partition the last retry-safe failure was reading:
        the next step emits the empty progress-advancing DELTA the
        pruning path uses instead of re-reading the file, so the query
        keeps refining without the partition's rows.  Returns the
        :class:`~repro.engine.ops.read.QuarantinedPartition` skipped, or
        ``None`` when the failure's source does not support skipping
        (no retry-safe failure recorded, or a non-scan source)."""
        if self._failed_source is None:
            return None
        stream = self._streams.get(self._failed_source)
        arm = getattr(stream, "quarantine_next", None)
        if arm is None:
            return None
        record = arm()
        if record is not None:
            self.quarantined.append(record)
        return record

    def _finalize(self) -> None:
        self._finished = True
        graph = self.graph
        assert graph is not None
        self._sink.finish()
        if not len(self._sink.edf):
            _append_empty_final(
                self._sink, graph.resolve()[self.output].schema,
                graph.node(self.output).operator.progress,
            )
        self._streams.clear()

    def run(self) -> EvolvingDataFrame:
        """Step until every source hit EOF; returns the sealed edf."""
        while self.step():
            pass
        return self.edf

    def close(self) -> None:
        """Abandon the run: close every open read stream and release
        operator state (build indexes, group state).  The edf keeps the
        snapshots produced so far but will never become final.  Called
        by the service layer on cancellation; idempotent."""
        if self._closed:
            return
        self._closed = True
        for stream in self._streams.values():
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        self._streams.clear()
        self._build.clear()
        self._round_robin.clear()
        # Drop the graph reference: it is what keeps per-operator state
        # (join indexes, aggregate slots, sort buffers) alive.
        self.graph = None
        self._subscribers = None

    # -- dispatch (breadth-first flush) -------------------------------------------
    def _dispatch(self, node_id: int, port: int, item: object) -> None:
        graph = self.graph
        sink = self._sink
        subscribers = self._subscribers
        profiler = self.profiler
        assert graph is not None and subscribers is not None
        pending: deque[tuple[int, int, object]] = deque(
            [(node_id, port, item)]
        )
        while pending:
            nid, prt, itm = pending.popleft()
            node = graph.node(nid)
            started = time.perf_counter() if profiler is not None else 0.0
            if isinstance(itm, Message):
                outputs = node.operator.on_message(prt, itm)
                rows = itm.frame.n_rows
                forward_eof = False
            else:
                outputs = node.operator.on_eof(prt)
                rows = 0
                forward_eof = node.operator.eof_complete
            if profiler is not None:
                profiler.record(node.operator.name,
                                time.perf_counter() - started, rows)
            for out in outputs:
                if nid == self.output:
                    sink.accept(out)
                for sub_id, sub_port in subscribers[nid]:
                    pending.append((sub_id, sub_port, out))
            if forward_eof:
                if nid == self.output:
                    sink.finish(node.operator.progress)
                for sub_id, sub_port in subscribers[nid]:
                    pending.append((sub_id, sub_port, Eof(
                        node.operator.progress)))

    def _emit_from_source(self, source_id: int, message: Message) -> None:
        assert self._subscribers is not None
        if source_id == self.output:
            self._sink.accept(message)
        for sub_id, sub_port in self._subscribers[source_id]:
            self._dispatch(sub_id, sub_port, message)

    def _emit_source_eof(self, source_id: int) -> None:
        assert self.graph is not None and self._subscribers is not None
        op = self.graph.node(source_id).operator
        if source_id == self.output:
            self._sink.finish(op.progress)
        for sub_id, sub_port in self._subscribers[source_id]:
            self._dispatch(sub_id, sub_port, Eof(op.progress))

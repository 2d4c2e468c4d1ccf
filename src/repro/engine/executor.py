"""Query executors (paper §7.2 "Execution Engine").

Two interchangeable engines drive a :class:`QueryGraph` and collect the
output node's message stream into an :class:`EvolvingDataFrame`:

* :class:`SyncExecutor` — single-threaded, deterministic.  Drains
  priority-0 sources (hash-join build subtrees) fully, then round-robins
  the remaining sources one partition at a time, breadth-first flushing
  every message through the graph.  This is the engine used by tests and
  error-curve experiments (deterministic snapshot sequences).

* :class:`ThreadedExecutor` — the paper's design: every node runs on its
  own thread, edges are bounded queues, EOF markers propagate shutdown.
  Provides pipelined parallelism (Appendix C / Fig 13) and records a
  per-node busy timeline.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.dataframe.frame import DataFrame
from repro.core.edf import EdfSnapshot, EvolvingDataFrame
from repro.core.properties import Delivery
from repro.engine.graph import QueryGraph
from repro.engine.message import Eof, Message
from repro.engine.ops.base import SourceOperator


@dataclass(frozen=True)
class TimelineEvent:
    """One busy interval of a node (for the Fig 13 pipeline plot)."""

    node: str
    start: float
    end: float
    rows: int


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
    the graph, and returns control to the caller.  Stepping to
    completion reproduces :class:`SyncExecutor`'s dispatch order exactly
    — build-side sources drain fully first, the rest round-robin one
    partition at a time — so snapshot sequences are byte-identical to a
    run-to-EOF execution no matter how the steps are interleaved with
    other queries'.  This is the scheduling quantum of the multi-query
    service (:mod:`repro.service`).

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
        record_timeline: bool = False,
    ) -> None:
        graph.validate_output(output)
        self.graph: QueryGraph | None = graph
        self.output = output
        self.capture_all = capture_all
        self.record_timeline = record_timeline
        self.timeline: list[TimelineEvent] = []
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

    # -- dispatch (breadth-first flush, shared with SyncExecutor) -----------------
    def _dispatch(self, node_id: int, port: int, item: object) -> None:
        graph = self.graph
        sink = self._sink
        subscribers = self._subscribers
        assert graph is not None and subscribers is not None
        pending: deque[tuple[int, int, object]] = deque(
            [(node_id, port, item)]
        )
        while pending:
            nid, prt, itm = pending.popleft()
            node = graph.node(nid)
            start = time.perf_counter()
            if isinstance(itm, Message):
                outputs = node.operator.on_message(prt, itm)
                rows = itm.frame.n_rows
                forward_eof = False
            else:
                outputs = node.operator.on_eof(prt)
                rows = 0
                forward_eof = node.operator.eof_complete
            if self.record_timeline or self.profiler is not None:
                end = time.perf_counter()
                if self.record_timeline:
                    self.timeline.append(
                        TimelineEvent(node.operator.name, start, end,
                                      rows)
                    )
                if self.profiler is not None:
                    self.profiler.record(node.operator.name,
                                         end - start, rows)
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


class SyncExecutor(StepExecutor):
    """Deterministic single-threaded run-to-completion executor: step
    until all sources hit EOF (see :class:`StepExecutor` for the pump
    loop; this class is the classic blocking entry point)."""


class ThreadedExecutor:
    """One thread per node with bounded channels (the paper's engine)."""

    #: Bounded channel capacity (messages) — provides backpressure.
    CHANNEL_CAPACITY = 16

    def __init__(
        self,
        graph: QueryGraph,
        output: int,
        capture_all: bool = True,
        record_timeline: bool = False,
        source_delay: float = 0.0,
    ) -> None:
        graph.validate_output(output)
        self.graph = graph
        self.output = output
        self.capture_all = capture_all
        self.record_timeline = record_timeline
        self.source_delay = source_delay
        self.timeline: list[TimelineEvent] = []
        self._timeline_lock = threading.Lock()
        self._last_edf: EvolvingDataFrame | None = None
        #: Shared abort flag: flipped by the error path *and* by
        #: external cancellation; once set, blocked bounded-channel puts
        #: convert into drops and every node thread winds down.
        self._abort = threading.Event()

    def cancel(self) -> None:
        """Externally abort an in-flight ``run()``/``stream()``.

        Reuses the error-path abort protocol: sources stop streaming,
        blocked puts into full channels become drops, and an EOF
        cascade drains the graph, so every worker thread joins instead
        of leaking.  The stream then ends with whatever snapshots were
        already produced (the edf never becomes final).  Idempotent and
        safe to call from any thread.
        """
        self._abort.set()

    def _record(self, name: str, start: float, end: float,
                rows: int) -> None:
        if self.record_timeline:
            with self._timeline_lock:
                self.timeline.append(TimelineEvent(name, start, end, rows))

    def run(self) -> EvolvingDataFrame:
        """Execute to completion and return the collected edf."""
        edf: EvolvingDataFrame | None = None
        for _snapshot in self.stream():
            pass
        edf = self._last_edf
        assert edf is not None
        return edf

    def stream(self):
        """Execute while *yielding* each snapshot as it is produced —
        the live-consumer API (progressive visualization, dashboards).

        Closing the generator mid-stream (``close()``, garbage
        collection of an abandoned iterator, or a ``KeyboardInterrupt``
        in the consumer loop) shuts the executor down cleanly: the
        abort flag flips, blocked channel puts become drops, and every
        node thread is joined before ``GeneratorExit`` propagates.
        """
        graph = self.graph
        infos = graph.resolve()
        subscribers = graph.subscribers()
        started_at = time.perf_counter()

        channels: dict[int, queue.Queue] = {
            nid: queue.Queue(maxsize=self.CHANNEL_CAPACITY)
            for nid in graph.nodes
            if not isinstance(graph.node(nid).operator, SourceOperator)
        }
        sink_channel: queue.Queue = queue.Queue()
        errors: list[BaseException] = []
        # Set on the first node error, by cancel(), or when the
        # generator is closed mid-stream.  Once aborting, every blocked
        # bounded-channel put converts into a bounded retry that drops
        # its item — consumers may already have exited, and a blocking
        # put into a full channel nobody drains would park the producer
        # until the join timeout, masking the original error.
        abort = self._abort

        def put_item(channel_: queue.Queue, item: object) -> None:
            while True:
                try:
                    channel_.put(item, timeout=0.05)
                    return
                except queue.Full:
                    if abort.is_set():
                        return  # receiver is gone; drop on the floor

        def send(node_id: int, item: object) -> None:
            """Fan out one item to a node's subscribers (and the sink)."""
            if node_id == self.output:
                sink_channel.put(item)  # unbounded, never blocks
            for sub_id, sub_port in subscribers[node_id]:
                put_item(channels[sub_id], (sub_port, item))

        def fail(exc: BaseException, node_id: int, progress) -> None:
            """Error path: record, flip the abort flag, then poison
            downstream with EOF so the graph drains instead of hanging."""
            errors.append(exc)
            abort.set()
            send(node_id, Eof(progress))

        def source_main(node_id: int) -> None:
            op = graph.node(node_id).operator
            assert isinstance(op, SourceOperator)
            try:
                for message in op.stream():
                    if abort.is_set():
                        break
                    if self.source_delay:
                        time.sleep(self.source_delay)
                    send(node_id, message)
                send(node_id, Eof(op.progress))
            except BaseException as exc:  # noqa: BLE001 - forwarded to main
                fail(exc, node_id, op.progress)

        def worker_main(node_id: int) -> None:
            op = graph.node(node_id).operator
            channel = channels[node_id]
            try:
                while True:
                    try:
                        port, item = channel.get(timeout=0.05)
                    except queue.Empty:
                        if abort.is_set():
                            send(node_id, Eof(op.progress))
                            return
                        continue
                    start = time.perf_counter()
                    if isinstance(item, Message):
                        outputs = op.on_message(port, item)
                        rows = item.frame.n_rows
                    else:
                        outputs = op.on_eof(port)
                        rows = 0
                    self._record(op.name, start, time.perf_counter(), rows)
                    for out in outputs:
                        send(node_id, out)
                    if op.eof_complete:
                        send(node_id, Eof(op.progress))
                        return
            except BaseException as exc:  # noqa: BLE001
                fail(exc, node_id, op.progress)

        threads: list[threading.Thread] = []
        for nid in graph.nodes:
            op = graph.node(nid).operator
            main = source_main if isinstance(op, SourceOperator) \
                else worker_main
            thread = threading.Thread(
                target=main, args=(nid,), name=f"wake-{op.name}",
                daemon=True,
            )
            threads.append(thread)

        sink = _SinkState(
            name=graph.node(self.output).operator.name,
            delivery=infos[self.output].delivery,
            capture_all=self.capture_all,
            started_at=started_at,
        )
        self._last_edf = sink.edf
        for thread in threads:
            thread.start()
        yielded = 0
        completed = False
        try:
            while True:
                try:
                    item = sink_channel.get(timeout=0.1)
                except queue.Empty:
                    # Belt and braces: if the output's EOF was lost to an
                    # aborting channel, stop once every node thread is
                    # done.
                    if abort.is_set() and not any(
                        t.is_alive() for t in threads
                    ):
                        break
                    continue
                if isinstance(item, Eof):
                    sink.finish(item.progress)
                else:
                    sink.accept(item)
                while yielded < len(sink.edf):
                    yield sink.edf.snapshots[yielded]
                    yielded += 1
                if isinstance(item, Eof):
                    break
            completed = True
        finally:
            # Abandoned mid-stream (GeneratorExit from close()/GC, or an
            # exception such as KeyboardInterrupt in the consumer loop):
            # flip the abort flag so blocked puts become drops, then
            # join every node thread before the exception propagates.
            if not completed:
                abort.set()
            # With the abort protocol, threads unblock within one retry
            # interval of a failure; a short timeout suffices there.
            join_timeout = 30.0 if completed and not errors else 5.0
            for thread in threads:
                thread.join(timeout=join_timeout)
        if errors:
            # The original failure always wins over secondary symptoms
            # (e.g. a straggler thread still tearing down).
            raise ExecutionError(
                f"execution failed: {errors[0]!r}"
            ) from errors[0]
        for thread in threads:
            if thread.is_alive():
                raise ExecutionError(
                    f"thread {thread.name} failed to terminate"
                )
        if not len(sink.edf):
            _append_empty_final(sink, infos[self.output].schema,
                                graph.node(self.output).operator.progress)
            yield sink.edf.snapshots[0]

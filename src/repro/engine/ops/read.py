"""Table reader source (the paper's ``read_csv`` node).

Streams one DELTA message per partition, advancing the per-source progress
counters that the whole pipeline inherits (§4.4: the only metadata needed
is the file list, per-file tuple counts, and key attributes).

The scan layer accepts two pushdowns from the planner
(:func:`repro.engine.planner.projection_pass` /
:func:`~repro.engine.planner.pruning_pass`):

* ``columns`` — projection: only the selected columns are decompressed
  per partition, so per-message scan cost is O(selected columns), not
  O(schema width);
* ``predicates`` — a sargable conjunction evaluated against the
  catalog's per-partition zone maps: partitions no row of which can
  satisfy the filter are *skipped* (never read).  A skipped partition
  still yields an **empty** DELTA message whose progress advances by its
  tuple count, so downstream snapshot cadence, growth-inference ``t``,
  and estimator scale-ups are exactly what an unpruned scan + filter
  would produce — pruning is semantically a filter, finals stay
  byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import QueryError
from repro.dataframe import DataFrame, Schema
from repro.core.properties import Delivery, Progress, StreamInfo
from repro.engine.message import Message
from repro.engine.ops.base import SourceOperator, surviving_key
from repro.storage.catalog import TableMeta
from repro.storage.zonemap import SargablePredicate, prunable_partitions


@dataclass(frozen=True)
class QuarantinedPartition:
    """One partition a scan gave up on (fault tolerance's skip mode)."""

    source: str
    table: str
    index: int
    path: str
    rows: int


class PartitionStream:
    """Iterator yielding one DELTA message per partition — the
    retry-safe form of the old generator-based scan.

    A generator dies the moment an exception propagates out of it; this
    class instead keeps an explicit cursor that only advances *after* a
    partition is read successfully, so a transient read failure leaves
    the stream positioned on the same partition and the very next
    ``next()`` retries it.  That property is what makes the service's
    per-step retry sound: a retried step re-reads exactly the partition
    that failed, nothing is skipped or double-counted.

    ``quarantine_next()`` arms the skip-and-degrade path: the next pull
    does not touch the failing file and instead emits the same
    empty-DELTA-that-advances-progress message the zone-map pruning path
    uses, so downstream snapshot cadence and growth inference keep
    refining without the partition's rows.
    """

    def __init__(self, op: "ReadOperator") -> None:
        self._op = op
        self._indices = list(
            range(op.meta.n_partitions)
            if op.order is None
            else op.order
        )
        self._pruned = op.pruned_partitions()
        self._schema = op.scan_schema()
        self._pos = 0
        self._quarantine_next = False
        # Pre-bound storage-read instruments (a ScanInstruments bundle
        # injected by the service, like the scan-share pool below);
        # ``None`` keeps the scan unmetered.
        self._obs = op.scan_metrics
        # Multi-query scan sharing (service layer): when the operator
        # carries a ScanShareManager, register the partitions this
        # stream will physically read (pruned ones excluded) so
        # concurrent scans of the same table share one read/decompress
        # per partition.  All failure/retry semantics are unchanged —
        # the pool never publishes a failed read.
        if op.scan_share is not None:
            self._share = op.scan_share.subscribe(
                op.meta,
                (i for i in self._indices if i not in self._pruned),
                op.columns,
            )
        else:
            self._share = None
        # Per-stream state is rebuilt from scratch: constructing (or
        # restarting) the iterator twice must not double-merge progress
        # into the operator, so ``_progress`` is *reset*, not merged.
        self._progress = Progress.start(
            op.source_name, op.meta.total_tuples
        )
        op._progress = self._progress

    def __iter__(self) -> "PartitionStream":
        return self

    def __next__(self) -> Message:
        op = self._op
        if self._pos >= len(self._indices):
            if self._share is not None:
                self._share.close()
            raise StopIteration
        index = self._indices[self._pos]
        obs = self._obs
        if index in self._pruned or self._quarantine_next:
            # Pruned or quarantined: advance progress by the partition's
            # tuple count without touching the file.  The empty partial
            # still flows so downstream refresh cadence and growth
            # inference match the full scan exactly.
            if self._quarantine_next and self._share is not None:
                # Tell the pool we will never consume this partition so
                # other subscribers stop waiting on (and stop widening
                # column unions for) this stream.
                self._share.release(index)
            if obs is not None and not self._quarantine_next:
                obs.partitions_pruned.inc()
            self._quarantine_next = False
            frame = DataFrame.empty(self._schema)
            advance = op.meta.tuple_counts[index]
        elif self._share is not None:
            frame = self._share.fetch(index)
            advance = frame.n_rows
            if obs is not None:
                obs.partitions_read.inc()
                obs.rows_read.inc(advance)
                obs.bytes_read.inc(frame.nbytes())
        else:
            frame = op.meta.read_partition(index, columns=op.columns)
            advance = frame.n_rows
            if obs is not None:
                obs.partitions_read.inc()
                obs.rows_read.inc(advance)
                obs.bytes_read.inc(frame.nbytes())
        self._pos += 1
        self._progress = self._progress.advanced(
            op.source_name, advance
        )
        op._progress = self._progress
        return Message(frame=frame, progress=self._progress,
                       kind=Delivery.DELTA)

    def quarantine_next(self) -> QuarantinedPartition | None:
        """Arm the skip for the partition the cursor points at (the one
        whose read just failed); returns its description, or ``None``
        when the stream is already exhausted."""
        if self._pos >= len(self._indices):
            return None
        index = self._indices[self._pos]
        self._quarantine_next = True
        return QuarantinedPartition(
            source=self._op.source_name,
            table=self._op.meta.name,
            index=index,
            path=str(self._op.meta.files[index]),
            rows=int(self._op.meta.tuple_counts[index]),
        )

    def close(self) -> None:
        """Exhaust the stream (the executor's stream-shutdown hook)."""
        self._pos = len(self._indices)
        if self._share is not None:
            self._share.close()


class ReadOperator(SourceOperator):
    """Reads a partitioned base table as a DELTA stream.

    ``order`` optionally permutes partition read order (used by the §8.5
    shuffled-input CI experiment).  ``source_name`` keys the progress
    counters; without one the scan is labelled by the plan that holds
    it (the table name, ``@2``, ``@3``... for later scans of the same
    table).  ``columns``/``predicates`` carry planner pushdowns (see the
    module docstring).
    """

    #: Optional :class:`~repro.service.scanshare.ScanShareManager` —
    #: injected by the step executor when the service enables shared
    #: scans; ``None`` (the default) keeps every scan private.
    scan_share = None
    #: Optional :class:`~repro.obs.instruments.ScanInstruments` bundle
    #: — injected by the step executor when the service enables
    #: telemetry; ``None`` (the default) keeps the scan unmetered.
    scan_metrics = None

    def __init__(
        self,
        meta: TableMeta,
        name: str | None = None,
        order: Sequence[int] | None = None,
        source_name: str | None = None,
        columns: Sequence[str] | None = None,
        predicates: Sequence[SargablePredicate] = (),
    ) -> None:
        super().__init__(name or f"read({source_name or meta.name})")
        self.meta = meta
        self.order = list(order) if order is not None else None
        self.source_name = source_name or meta.name
        #: Whether the caller chose ``source_name`` (else the plan may
        #: number it; see ``PlanNode.materialize``).
        self.named = source_name is not None
        self.columns: tuple[str, ...] | None = None
        self.predicates: tuple[SargablePredicate, ...] = tuple(predicates)
        if columns is not None:
            self.set_columns(columns)

    # -- pushdown hooks (mutated by the planner before bind) ------------------
    def set_columns(self, columns: Sequence[str]) -> None:
        """Project the scan to ``columns`` (kept in table-schema order)."""
        wanted = set(columns)
        missing = wanted - set(self.meta.schema.names)
        if missing:
            raise QueryError(
                f"scan {self.name!r}: pushed column(s) {sorted(missing)} "
                f"not in table {self.meta.name!r}"
            )
        if not wanted:
            raise QueryError(f"scan {self.name!r}: empty column pushdown")
        self.columns = tuple(
            n for n in self.meta.schema.names if n in wanted
        )

    def set_predicates(
        self, predicates: Sequence[SargablePredicate]
    ) -> None:
        self.predicates = tuple(predicates)

    # -- plan-time views -------------------------------------------------------
    def scan_schema(self) -> Schema:
        """The (possibly projected) schema this scan emits."""
        if self.columns is None:
            return self.meta.schema
        return self.meta.schema.select(self.columns)

    def pruned_partitions(self) -> frozenset[int]:
        """Partition indices the zone maps prove the predicates exclude."""
        return prunable_partitions(self.meta.stats, self.predicates)

    def _derive_info(self, inputs) -> StreamInfo:
        schema = self.scan_schema()
        return StreamInfo(
            schema=schema,
            primary_key=surviving_key(self.meta.primary_key, schema),
            clustering_key=surviving_key(
                self.meta.clustering_key, schema
            ),
            delivery=Delivery.DELTA,
        )

    def signature(self) -> tuple:
        preds = tuple(sorted(repr(p) for p in self.predicates))
        order = tuple(self.order) if self.order is not None else None
        return (self.meta.name, self.source_name, order, self.columns,
                preds)

    def stream(self) -> Iterator[Message]:
        """A fresh retry-safe cursor over the table's partitions (see
        :class:`PartitionStream` for the fault-tolerance contract)."""
        return PartitionStream(self)

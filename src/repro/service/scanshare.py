"""Shared-scan fan-out: one physical partition read per (table,
partition, column-superset), fanned out to every subscribed query.

The multi-query service (PR 5) runs N concurrent queries over the same
base tables, but each query's :class:`~repro.engine.ops.read.ReadOperator`
re-reads and re-decompresses every partition — the scan layer is N-times
redundant, the classic shared-cyclic-scan problem of online aggregation.
This module de-duplicates the physical work *without touching query
semantics*:

* Each :class:`PartitionStream` *subscribes* to the
  :class:`ScanShareManager` with the set of partitions it will actually
  read (zone-map-pruned ones excluded) and its pushed-down column set.
* The first subscriber to pull a partition performs the one physical
  read — using the **union** of the columns every currently-pending
  subscriber needs, so overlapping projections share one decompress —
  and publishes the frame; every other pending subscriber's pull is a
  cache hit that *projects* the shared frame down to its own columns.
* Entries are refcounted by the set of subscribers still waiting: the
  last fetch evicts, so steady-state memory is O(in-flight partitions),
  not O(table).  A small LRU cap bounds the pathological case of a
  paused subscriber pinning entries indefinitely; an LRU-evicted
  subscriber simply falls back to its own read (a miss, never an error).

**Correctness contract** — snapshot sequences stay byte-identical to
unshared scans:

* Projection of the shared superset frame uses
  :meth:`~repro.dataframe.frame.DataFrame.select`, which preserves the
  requested column order; npz members are the same arrays whether the
  read was projected or not, so the projected view is byte-identical to
  a direct projected read.
* Fan-out shares *references* to immutable frames — no copy, no
  re-ordering, no batching across partitions.
* Failed reads are **never** published: a transient error propagates to
  exactly the pulling session (whose cursor has not advanced), so PR 6
  retry/quarantine stays per-session.  A subscriber that quarantines a
  partition :meth:`~ScanSubscription.release`\\ s it so the others stop
  waiting on (and stop widening column unions for) that subscriber.

The manager has one internal lock guarding only dict bookkeeping;
**physical IO always happens outside the lock** (check → read → publish)
so one slow read never serializes unrelated tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.dataframe import DataFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.storage.catalog import TableMeta

#: Default LRU cap on published-but-not-fully-consumed entries.  Each
#: entry is one partition's column superset; 64 comfortably covers the
#: window between the fastest and slowest of a fair-share cohort while
#: bounding memory when a paused session pins its pending entries.
DEFAULT_MAX_CACHED = 64


class _Entry:
    """One published partition read: the superset frame plus the ids of
    subscribers that have not consumed it yet (the refcount)."""

    __slots__ = ("frame", "columns", "waiting")

    def __init__(
        self,
        frame: DataFrame,
        columns: tuple[str, ...] | None,
        waiting: set[int],
    ) -> None:
        self.frame = frame
        self.columns = columns
        self.waiting = waiting


class ScanSubscription:
    """One scan's membership in the share pool (created via
    :meth:`ScanShareManager.subscribe`; used by
    :class:`~repro.engine.ops.read.PartitionStream`).

    * :meth:`fetch` — the shared read: returns the partition projected
      to *this* subscriber's columns, hitting the pool when another
      subscriber already paid for the physical read.
    * :meth:`release` — this subscriber will never read the partition
      (quarantine): stop counting it toward refcounts/column unions.
    * :meth:`close` — the stream is exhausted or abandoned; releases
      every remaining pending partition.  Idempotent.
    """

    def __init__(
        self,
        manager: "ScanShareManager",
        sub_id: int,
        key: tuple,
        meta: "TableMeta",
        columns: tuple[str, ...] | None,
    ) -> None:
        self._manager = manager
        self._id = sub_id
        self._key = key
        self._meta = meta
        self._columns = columns
        self._closed = False

    def fetch(self, index: int) -> DataFrame:
        """Read partition ``index`` through the share pool, projected to
        this subscriber's columns.  A failure propagates unchanged (and
        publishes nothing), leaving this call retryable."""
        return self._manager._fetch(self, index)

    def release(self, index: int) -> None:
        """Drop this subscriber's claim on ``index`` (the quarantine
        path): pending entries stop waiting for us and future column
        unions stop including ours."""
        self._manager._release(self, index)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._manager._unsubscribe(self)


class ScanShareManager:
    """The service-wide shared-scan pool (one per
    :class:`~repro.service.server.QueryService`).

    Thread-safe; safe to share across every session of a service.  The
    manager is content-addressed — tables are keyed by ``(name, files)``
    — so two catalogs pointing at the same partition files share reads
    while a re-registered table with different files does not.
    """

    def __init__(self, max_cached: int = DEFAULT_MAX_CACHED) -> None:
        if max_cached < 1:
            raise ValueError(
                f"max_cached must be >= 1, got {max_cached}"
            )
        self._lock = threading.Lock()
        self._max_cached = max_cached
        self._next_id = 1
        #: sub_id -> (table key, pending partition indices, columns).
        self._subscribers: dict[
            int, tuple[tuple, set[int], tuple[str, ...] | None]
        ] = {}
        #: (table key, partition index) -> published entry, in LRU order
        #: (most recently touched last).
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._physical_reads = 0
        self._shared_hits = 0
        self._lru_evictions = 0

    # -- subscription lifecycle ----------------------------------------------------
    def subscribe(
        self,
        meta: "TableMeta",
        pending: Iterable[int],
        columns: Iterable[str] | None,
    ) -> ScanSubscription:
        """Register one scan: ``pending`` is the set of partition
        indices it will physically read (pruned ones excluded) and
        ``columns`` its projection (``None`` = all columns)."""
        key = (meta.name, tuple(meta.files))
        cols = tuple(columns) if columns is not None else None
        with self._lock:
            sub_id = self._next_id
            self._next_id += 1
            self._subscribers[sub_id] = (key, set(pending), cols)
        return ScanSubscription(self, sub_id, key, meta, cols)

    def _unsubscribe(self, sub: ScanSubscription) -> None:
        with self._lock:
            record = self._subscribers.pop(sub._id, None)
            if record is None:
                return
            key, pending, _ = record
            for index in pending:
                self._drop_claim_locked(sub._id, (key, index))

    def _release(self, sub: ScanSubscription, index: int) -> None:
        with self._lock:
            record = self._subscribers.get(sub._id)
            if record is None:
                return
            record[1].discard(index)
            self._drop_claim_locked(sub._id, (sub._key, index))

    def _drop_claim_locked(self, sub_id: int, entry_key: tuple) -> None:
        entry = self._entries.get(entry_key)
        if entry is not None:
            entry.waiting.discard(sub_id)
            if not entry.waiting:
                del self._entries[entry_key]

    # -- the shared read -----------------------------------------------------------
    def _fetch(self, sub: ScanSubscription, index: int) -> DataFrame:
        entry_key = (sub._key, index)
        with self._lock:
            entry = self._entries.get(entry_key)
            if (
                entry is not None
                and sub._id in entry.waiting
                and _covers(entry.columns, sub._columns)
            ):
                # Hit: consume our claim; the last consumer evicts.
                entry.waiting.discard(sub._id)
                if entry.waiting:
                    self._entries.move_to_end(entry_key)
                else:
                    del self._entries[entry_key]
                record = self._subscribers.get(sub._id)
                if record is not None:
                    record[1].discard(index)
                self._shared_hits += 1
                frame = entry.frame
            else:
                # Miss: compute the column union + waiting set from the
                # subscribers currently pending this partition, then do
                # the physical read OUTSIDE the lock.
                frame = None
                union = _column_union(
                    self._subscribers.values(), sub._key, index
                )
        if frame is None:
            read = sub._meta.read_partition(index, columns=union)
            self._physical_reads += 1
            with self._lock:
                record = self._subscribers.get(sub._id)
                if record is not None:
                    record[1].discard(index)
                waiting = {
                    sid
                    for sid, (key, pend, _) in self._subscribers.items()
                    if key == sub._key and index in pend
                }
                if waiting:
                    self._entries[entry_key] = _Entry(
                        read, union, waiting
                    )
                    self._entries.move_to_end(entry_key)
                    while len(self._entries) > self._max_cached:
                        self._entries.popitem(last=False)
                        self._lru_evictions += 1
            frame = read
        if sub._columns is None:
            return frame
        if frame.column_names == sub._columns:
            return frame
        return frame.select(list(sub._columns))

    # -- introspection -------------------------------------------------------------
    def stats(self) -> Mapping[str, int]:
        """Counters for the service ``metrics`` report: physical reads
        paid, fetches served from the pool, LRU evictions, and the
        current pool occupancy."""
        with self._lock:
            return {
                "physical_reads": self._physical_reads,
                "shared_hits": self._shared_hits,
                "lru_evictions": self._lru_evictions,
                "subscribers": len(self._subscribers),
                "entries": len(self._entries),
            }


def _covers(
    have: tuple[str, ...] | None, need: tuple[str, ...] | None
) -> bool:
    """Whether a published column set satisfies a subscriber's
    projection (``None`` = the full schema)."""
    if have is None:
        return True
    if need is None:
        return False
    return set(need) <= set(have)


def _column_union(
    records, key: tuple, index: int
) -> tuple[str, ...] | None:
    """The union of the column sets of every subscriber pending
    ``(key, index)``; ``None`` as soon as any of them scans the full
    schema."""
    union: set[str] = set()
    for rec_key, pending, cols in records:
        if rec_key != key or index not in pending:
            continue
        if cols is None:
            return None
        union.update(cols)
    return tuple(sorted(union)) if union else None

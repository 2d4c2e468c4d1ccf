"""Multi-query service: run many online-aggregation queries in one
process and stream their snapshots to subscribers.

Layering (bottom-up):

* :class:`repro.engine.executor.StepExecutor` — the resumable executor
  whose quantum is one source partition;
* :mod:`repro.service.session` — query lifecycle (SUBMITTED → RUNNING →
  PAUSED/DONE/CANCELLED/FAILED) plus per-session snapshot buffers —
  views over the executor's edf — with non-blocking subscription
  cursors;
* :mod:`repro.service.scheduler` — a cooperative fair-share (stride)
  scheduler time-slicing partition-steps across sessions, with
  optional fault tolerance (:mod:`repro.service.retry`): transient
  partition-read failures retry with deterministic backoff, and
  skip-and-degrade mode quarantines partitions that keep failing;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only NDJSON-over-TCP protocol (``submit`` / ``subscribe`` /
  ``status`` / ``pause`` / ``resume`` / ``cancel``) streaming snapshots
  as they are produced (``repro serve``).
"""

from repro.service.retry import PARTITION_ERROR_MODES, RetryPolicy
from repro.service.scanshare import ScanShareManager, ScanSubscription
from repro.service.scheduler import FairShareScheduler
from repro.service.session import (
    AttachedSession,
    QuerySession,
    SessionState,
    SnapshotBuffer,
    Subscription,
)
from repro.service.server import QueryService, SnapshotServer
from repro.service.client import ServiceClient, SessionHandle

__all__ = [
    "AttachedSession",
    "FairShareScheduler",
    "PARTITION_ERROR_MODES",
    "QueryService",
    "QuerySession",
    "RetryPolicy",
    "ScanShareManager",
    "ScanSubscription",
    "ServiceClient",
    "SessionHandle",
    "SessionState",
    "SnapshotBuffer",
    "SnapshotServer",
    "Subscription",
]

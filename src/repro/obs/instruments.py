"""Pre-bound instrument bundles for the service's hot paths.

Hot-path code must never look instruments up by name or allocate a
label dict per event (the ``metric-hot-lookup`` lint rule): each
subsystem instead receives one of these bundles — plain attribute
access to instruments bound once at service construction.  The whole
bundle is ``None`` when telemetry is off, so the disabled cost is a
single ``is None`` check at each seam.

Metric catalog (all service-global; per-session series are emitted as
registry *views* over the live session objects — see
``QueryService._register_views``):

========================================  =========  =====================================
name                                      kind       meaning
========================================  =========  =====================================
``repro_steps_total``                     counter    partition-steps executed
``repro_step_seconds``                    histogram  per-step wall time
``repro_step_retries_total``              counter    step retries consumed
``repro_step_backoff_seconds_total``      counter    backoff delay scheduled
``repro_partitions_quarantined_total``    counter    partitions skipped (degrade mode)
``repro_snapshots_published_total``       counter    snapshots published to subscribers
``repro_snapshot_lag_seconds``            histogram  publish-to-consume delay
``repro_partitions_read_total``           counter    partitions delivered to scans
``repro_partitions_pruned_total``         counter    partitions skipped by zone maps
``repro_scan_rows_total``                 counter    rows delivered to scans
``repro_scan_bytes_total``                counter    bytes delivered to scans
========================================  =========  =====================================
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class ScanInstruments:
    """Storage-read counters, injected into scan streams like the
    scan-share pool is (see ``StepExecutor._open_streams``)."""

    __slots__ = ("partitions_read", "partitions_pruned", "rows_read",
                 "bytes_read")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.partitions_read = registry.counter(
            "repro_partitions_read_total",
            help="partitions delivered to scan operators",
        )
        self.partitions_pruned = registry.counter(
            "repro_partitions_pruned_total",
            help="partitions skipped by zone-map pruning",
        )
        self.rows_read = registry.counter(
            "repro_scan_rows_total",
            help="rows delivered to scan operators",
        )
        self.bytes_read = registry.counter(
            "repro_scan_bytes_total",
            help="column bytes delivered to scan operators",
        )


class BufferInstruments:
    """Snapshot-buffer lifecycle: publishes and consume lag.  Carries
    the registry clock so buffers can stamp publish times without
    importing the registry."""

    __slots__ = ("clock", "snapshots", "lag")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.clock = registry.clock
        self.snapshots = registry.counter(
            "repro_snapshots_published_total",
            help="snapshots published to session subscribers",
        )
        self.lag = registry.histogram(
            "repro_snapshot_lag_seconds",
            help="delay between a snapshot's publish and its consume",
        )


class SchedulerInstruments:
    """Step-loop counters: throughput, latency, fault churn."""

    __slots__ = ("steps", "step_seconds", "retries", "backoff_seconds",
                 "quarantines")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.steps = registry.counter(
            "repro_steps_total",
            help="partition-steps executed across all sessions",
        )
        self.step_seconds = registry.histogram(
            "repro_step_seconds",
            help="wall time of one partition-step",
        )
        self.retries = registry.counter(
            "repro_step_retries_total",
            help="step retries consumed after transient failures",
        )
        self.backoff_seconds = registry.counter(
            "repro_step_backoff_seconds_total",
            help="retry backoff delay scheduled",
        )
        self.quarantines = registry.counter(
            "repro_partitions_quarantined_total",
            help="partitions quarantined by skip-and-degrade mode",
        )


class ServiceInstruments:
    """Everything the service layer binds, bound once."""

    __slots__ = ("registry", "scan", "buffer", "scheduler")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.scan = ScanInstruments(registry)
        self.buffer = BufferInstruments(registry)
        self.scheduler = SchedulerInstruments(registry)

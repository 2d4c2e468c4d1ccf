"""End-to-end telemetry: metrics registry, tracing, profiling.

Everything here is dependency-free and off by default; the service
layer switches it on via ``ExecutionOptions(telemetry=True)`` (the
``repro serve`` default) and exposes it over the wire as the
``metrics``/``trace`` NDJSON ops plus a ``GET /metrics`` Prometheus
responder.  See the README's "Observability" section for the metric
catalog and usage walkthroughs.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.instruments import (
    BufferInstruments,
    ScanInstruments,
    SchedulerInstruments,
    ServiceInstruments,
)
from repro.obs.profile import OperatorProfiler
from repro.obs.trace import SessionTrace, Span, Tracer, maybe_span

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BufferInstruments",
    "ScanInstruments",
    "SchedulerInstruments",
    "ServiceInstruments",
    "OperatorProfiler",
    "SessionTrace",
    "Span",
    "Tracer",
    "maybe_span",
]

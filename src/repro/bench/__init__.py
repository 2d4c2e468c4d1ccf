"""Benchmark harness: metrics, runners, workloads, report formatting."""

from repro.bench.harness import (
    LatencyRow,
    SnapshotQuality,
    WakeRun,
    run_wake,
    score_snapshots,
    timed,
)
from repro.bench.metrics import (
    mape,
    median_or_nan,
    precision,
    ratio,
    recall,
    relative_ci_range,
    time_to_error,
    window_medians,
)

__all__ = [
    "LatencyRow",
    "SnapshotQuality",
    "WakeRun",
    "mape",
    "median_or_nan",
    "precision",
    "ratio",
    "recall",
    "relative_ci_range",
    "run_wake",
    "score_snapshots",
    "time_to_error",
    "timed",
    "window_medians",
]

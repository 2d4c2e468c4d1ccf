"""Outside-in measurement helpers shared by the four workloads.

Every time here is taken by *this* file's clock around calls into the
program's public functions; the program's own ``snapshot.wall_time`` is
never read.  A query is driven as ``executor_for`` + ``step()`` (which
the engine documents as byte-identical to ``ctx.run``) so the clock can
start before planning and stamp each snapshot as it appears.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import re
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.bench import metrics as quality
from repro.dataframe import DataFrame
from repro.obs import MetricsRegistry, ScanInstruments

from spec import OP_KINDS, REPO_ROOT, THREAD_PINS

perf_counter = time.perf_counter

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


median = statistics.median


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


# ---------------------------------------------------------------------------
# Tracing (benchmark-owned; attached through the executor's public seams)
# ---------------------------------------------------------------------------

_KIND_SPLIT = re.compile(r"[#(]")


def op_kind(name: str) -> str:
    """``agg#17`` -> ``agg``, ``read(lineitem)`` -> ``read``."""
    kind = _KIND_SPLIT.split(name, 1)[0]
    return kind if kind == "read" or kind in OP_KINDS else "other"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query_id: str


class Tracer:
    """Spans kept in memory for the whole run (``run.py`` writes them
    out at exit) plus one private scan counter bundle."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scan = ScanInstruments(MetricsRegistry())

    def add(self, name: str, start: float, end: float,
            parent: int | None, query_id: str) -> int:
        self.spans.append(Span(name, start, end, parent, query_id))
        return len(self.spans) - 1

    def to_json(self) -> list[dict]:
        return [{"id": i, **asdict(span)}
                for i, span in enumerate(self.spans)]


class Recorder:
    """Duck-types ``OperatorProfiler.record``: per-kind totals plus one
    span per dispatch, parented on the step that caused it."""

    def __init__(self, tracer: Tracer, query_id: str) -> None:
        self.tracer = tracer
        self.query_id = query_id
        self.parent: int | None = None
        #: kind -> [calls, rows, seconds]
        self.kinds: dict[str, list] = {}
        self._kind_of: dict[str, str] = {}

    def record(self, name: str, seconds: float, rows: int) -> None:
        end = perf_counter()
        kind = self._kind_of.get(name)
        if kind is None:
            kind = self._kind_of[name] = op_kind(name)
        entry = self.kinds.get(kind)
        if entry is None:
            entry = self.kinds[kind] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += rows
        entry[2] += seconds
        self.tracer.spans.append(
            Span(name, end - seconds, end, self.parent, self.query_id)
        )


def merge_kinds(into: dict[str, list], kinds: dict[str, list]) -> None:
    for kind, (calls, rows, seconds) in kinds.items():
        entry = into.setdefault(kind, [0, 0, 0.0])
        entry[0] += calls
        entry[1] += rows
        entry[2] += seconds


def read_seconds(kinds: dict[str, list]) -> float:
    """Source pulls (read + decode), attributed to the scan operators."""
    return kinds.get("read", (0, 0, 0.0))[2]


def op_seconds(kinds: dict[str, list]) -> float:
    """Operator self time, source pulls excluded."""
    return sum(e[2] for kind, e in kinds.items() if kind != "read")


def scan_metrics(scan: ScanInstruments) -> dict[str, float]:
    """The ``storage.*`` counters of a scan-instrument bundle."""
    return {
        "storage.partitions_read": scan.partitions_read.value,
        "storage.partitions_pruned": scan.partitions_pruned.value,
        "storage.bytes_read": scan.bytes_read.value,
    }


def operator_metrics(kinds: dict[str, list]) -> dict[str, float]:
    """``storage.read_*`` and ``engine.op.<kind>.*`` from recorder
    totals."""
    calls, rows, seconds = kinds.get("read", (0, 0, 0.0))
    metrics = {"storage.read_s": seconds, "storage.read_calls": calls,
               "storage.read_rows": rows}
    for kind in OP_KINDS:
        calls, rows, seconds = kinds.get(kind, (0, 0, 0.0))
        metrics[f"engine.op.{kind}.self_s"] = seconds
        metrics[f"engine.op.{kind}.calls"] = calls
        metrics[f"engine.op.{kind}.rows"] = rows
    return metrics


# ---------------------------------------------------------------------------
# Driving one query from outside
# ---------------------------------------------------------------------------


@dataclass
class Execution:
    """One Wake execution as seen by the outside clock (seconds are
    since the clock started, just before the plan was built)."""

    query_id: str
    build_s: float
    plan_s: float
    first_s: float
    final_s: float
    #: (seconds, snapshots visible) each time the edf grew.
    stamps: list[tuple[float, int]]
    steps: int
    edf: object
    plan_nodes: int
    rewrites: int
    step_times: list[float] = field(default_factory=list)
    recorder: Recorder | None = None

    @property
    def snapshots(self) -> int:
        return len(self.edf)

    def snapshot_times(self) -> list[float]:
        """Outside-clock arrival time of every snapshot."""
        times: list[float] = []
        for stamp, visible in self.stamps:
            times.extend([stamp] * (visible - len(times)))
        return times


def drive(
    ctx,
    build: Callable,
    query_id: str,
    capture_all: bool,
    tracer: Tracer | None = None,
    **executor_kwargs,
) -> Execution:
    """Plan and run one query to its exact final under the outside
    clock.  With a ``tracer`` the run is traced: a span per plan phase
    and per ``step()``, a :class:`Recorder` on ``executor.profiler`` and
    the tracer's counters on ``executor.scan_metrics``."""
    started = perf_counter()
    plan = build(ctx)
    built = perf_counter()
    executor = ctx.executor_for(plan, capture_all=capture_all,
                                **executor_kwargs)
    planned = perf_counter()
    trace = ctx.last_trace
    recorder = None
    root = None
    if tracer is not None:
        recorder = Recorder(tracer, query_id)
        executor.profiler = recorder
        executor.scan_metrics = tracer.scan
        root = tracer.add("query", started, started, None, query_id)
        tracer.add("api.build", started, built, root, query_id)
        tracer.add("engine.plan", built, planned, root, query_id)
    edf = executor.edf
    stamps: list[tuple[float, int]] = []
    step_times: list[float] = []
    visible = 0
    if tracer is None:
        while executor.step():
            if len(edf) != visible:
                visible = len(edf)
                stamps.append((perf_counter() - started, visible))
    else:
        while True:
            step_start = perf_counter()
            # Reserve the step's span before stepping so the recorder
            # can parent operator spans on it.
            recorder.parent = tracer.add(
                "engine.step", step_start, step_start, root, query_id)
            alive = executor.step()
            step_end = perf_counter()
            if not alive:
                tracer.spans.pop()
                break
            tracer.spans[recorder.parent].end = step_end
            step_times.append(step_end - step_start)
            if len(edf) != visible:
                visible = len(edf)
                stamps.append((step_end - started, visible))
        tracer.spans[root].end = perf_counter()
    return Execution(
        query_id=query_id,
        build_s=built - started,
        plan_s=planned - built,
        first_s=stamps[0][0],
        final_s=stamps[-1][0],
        stamps=stamps,
        steps=executor.steps,
        edf=edf,
        plan_nodes=len(executor.graph.nodes),
        rewrites=trace.total_rewrites if trace is not None else 0,
        step_times=step_times,
        recorder=recorder,
    )


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """(result, seconds) of one call, after a collection so one
    execution's garbage is not billed to the next."""
    gc.collect()
    started = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - started


def rounds_within(seconds: float, max_rounds: int | None):
    """Yield round numbers 0, 1, ... : always one, then another while
    the next is expected to end within ``seconds`` (judged by the
    longest round so far) and ``max_rounds`` allows."""
    started = perf_counter()
    longest = 0.0
    number = 0
    while True:
        round_started = perf_counter()
        yield number
        now = perf_counter()
        longest = max(longest, now - round_started)
        number += 1
        if max_rounds is not None and number >= max_rounds:
            return
        if now - started + longest > seconds:
            return


# ---------------------------------------------------------------------------
# Correctness and estimate quality
# ---------------------------------------------------------------------------


def _nothing_qualified(frame: DataFrame, oracle: DataFrame,
                       keys: Sequence[str]) -> bool:
    """A global aggregate over zero qualifying rows: Wake emits no row
    where the exact kernels emit one row of zeros.  Both say "nothing
    matched"; it only happens at smoke scale (q17/q19 at SF 0.005)."""
    if keys or frame.n_rows or oracle.n_rows != 1:
        return False
    return all(
        value == 0 or value != value  # zero or NaN
        for name in oracle.column_names
        for value in oracle.column(name).tolist()
    )


def final_matches(frame: DataFrame, oracle: DataFrame,
                  keys: Sequence[str], values: Sequence[str]) -> bool:
    """An exact final equals the oracle: same groups (recall and
    precision 100 %) and value error within float round-off."""
    if _nothing_qualified(frame, oracle, keys):
        return True
    if frame.n_rows != oracle.n_rows:
        return False
    if quality.recall(frame, oracle, keys) < 100.0:
        return False
    if quality.precision(frame, oracle, keys) < 100.0:
        return False
    error = quality.mape(frame, oracle, keys, values)
    return math.isnan(error) or error <= 1e-6


def converged_errors(execution: Execution, oracle: DataFrame,
                     keys: Sequence[str],
                     values: Sequence[str]) -> list[tuple[float, float]]:
    """[(outside-clock seconds, MAPE %)] per snapshot; an estimate that
    still misses groups counts as infinitely wrong."""
    series = []
    times = execution.snapshot_times()
    for when, snapshot in zip(times, execution.edf):
        frame = snapshot.frame
        error = quality.mape(frame, oracle, keys, values)
        if quality.recall(frame, oracle, keys) < 100.0:
            error = math.inf
        series.append((when, error))
    return series


def time_to_error(series: Sequence[tuple[float, float]],
                  threshold_pct: float) -> float:
    """Seconds until the error is within ``threshold_pct`` and stays
    there; the final's time when that only happens at the end."""
    reached = series[-1][0]
    for when, error in reversed(series):
        if math.isnan(error) or error > threshold_pct:
            break
        reached = when
    return reached


# ---------------------------------------------------------------------------
# Process and host facts
# ---------------------------------------------------------------------------


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*")
               if p.is_file())


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_stamp(preset, seed: int, seconds: float) -> dict:
    """Where and how a result was taken; stored with every JSON dump."""
    cpus = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "commit": _commit(),
        "nproc": cpus,
        "load1_at_start": load1,
        "noisy_host": load1 > 0.5 * cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "preset": asdict(preset),
        "seed": seed,
        "seconds": seconds,
        "thread_pins": {name: os.environ.get(name)
                        for name in THREAD_PINS},
    }


# ---------------------------------------------------------------------------
# What a workload is given and what it hands back
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    seed: int
    seconds: float
    trace: bool
    preset: object
    #: Scratch directory inside the checkout; removed by ``run.py``.
    workdir: Path


@dataclass
class Outcome:
    #: Every metric this run computed, by declared name.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Executions whose final was checked against the oracle / failed.
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Reconciliation / trace-overhead violations (traced runs).
    violations: list[str] = field(default_factory=list)
    #: Per-query tables for ``--json`` and RESULTS.md.
    detail: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

"""The measuring loop shared by the three single-query workloads
(``tpch_solo``, ``deep_chain``, ``scan_mix``).

A workload is a list of :class:`Case` — one query, its exact baselines
and how its answer is scored — over one ``WakeContext``.  ``measure``
takes the end-to-end numbers with tracing off; ``trace`` runs every
case once more with the benchmark's recorder attached and reports
where the time went.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from harness import (
    Config,
    Execution,
    Outcome,
    Tracer,
    converged_errors,
    drive,
    final_matches,
    geomean,
    median,
    merge_kinds,
    op_seconds,
    operator_metrics,
    peak_rss_mb,
    perf_counter,
    read_seconds,
    rounds_within,
    scan_metrics,
    time_to_error,
    timed,
)

#: Share of the outside wall clock the layer sums may miss or exceed.
RECONCILE_TOLERANCE = 0.05
#: Traced / untraced final time above which the layer table is not
#: trusted.
TRACE_OVERHEAD_LIMIT = 1.10
ERROR_THRESHOLD_PCT = 5.0


@dataclass
class Case:
    name: str
    #: The api-layer call: ``build(ctx) -> EdfFrame``.
    build: Callable
    #: One-shot exact engine over data already read from disk.
    exact_scan: Callable
    #: One-shot exact engine over in-memory tables; ``None`` where the
    #: workload's yardstick is the scan engine (``scan_mix``).
    exact_memory: Callable | None = None
    keys: Sequence[str] = ()
    values: Sequence[str] = ()
    executor_kwargs: dict = field(default_factory=dict)
    #: Score every snapshot's error against the exact answer (traced
    #: run only; needs ``capture_all``).
    scored: bool = False


@dataclass
class Workload:
    ctx: object
    cases: list[Case]
    #: ``capture_all`` of the timed executions.
    capture_all: bool
    #: Re-run the exact-scan baseline in every round (it is the
    #: yardstick) instead of once per run (it is only the
    #: first-estimate denominator and costs 3x a Wake pass on TPC-H).
    scan_every_round: bool
    #: Cases run once, untimed, before the clock starts.
    warmup: list[Case]
    #: Cases run under ``tracemalloc`` (it slows python 2-4x).
    peak_cases: list[Case]
    #: Traced passes over the cases (more for millisecond workloads).
    trace_reps: int = 1
    #: Exact-baseline executions per query and round, and extra
    #: executions abandoned after their first estimate: cheap samples
    #: for a workload whose rounds are too long to repeat.
    baseline_reps: int = 1
    first_only_reps: int = 0
    #: Metrics the set-up already produced (``setup_s``,
    #: ``loadgen.gen_s``, ``storage.write_s`` ...).
    setup_metrics: dict[str, float] = field(default_factory=dict)


def _run(workload: Workload, case: Case, tracer: Tracer | None = None,
         capture_all: bool | None = None) -> Execution:
    gc.collect()
    return drive(
        workload.ctx, case.build, case.name,
        workload.capture_all if capture_all is None else capture_all,
        tracer=tracer, **case.executor_kwargs,
    )


def _warm_up(workload: Workload) -> None:
    for case in workload.warmup:
        _run(workload, case)


# ---------------------------------------------------------------------------
# End to end (tracing off)
# ---------------------------------------------------------------------------


def _first_only(workload: Workload, case: Case) -> float:
    """Seconds to the first estimate of an execution abandoned right
    after it: a cheap extra sample of the first-estimate time."""
    gc.collect()
    started = perf_counter()
    executor = workload.ctx.executor_for(
        case.build(workload.ctx), capture_all=workload.capture_all,
        **case.executor_kwargs)
    edf = executor.edf
    while not len(edf) and executor.step():
        pass
    seconds = perf_counter() - started
    executor.close()
    return seconds


def measure(workload: Workload, cfg: Config) -> Outcome:
    outcome = Outcome()
    cases = workload.cases
    rng = np.random.default_rng(cfg.seed)
    first: dict[str, list[float]] = {c.name: [] for c in cases}
    final: dict[str, list[float]] = {c.name: [] for c in cases}
    memory: dict[str, list[float]] = {c.name: [] for c in cases}
    scan: dict[str, list[float]] = {c.name: [] for c in cases}
    busy = 0.0
    _warm_up(workload)
    for number in rounds_within(cfg.seconds, cfg.preset.max_rounds):
        for index in rng.permutation(len(cases)):
            case = cases[index]
            wake_started = perf_counter()
            execution = _run(workload, case)
            busy += perf_counter() - wake_started
            first[case.name].append(execution.first_s)
            final[case.name].append(execution.final_s)
            answer = execution.edf.get_final()
            del execution
            for _rep in range(workload.first_only_reps):
                first[case.name].append(_first_only(workload, case))
            oracle = None
            for _rep in range(workload.baseline_reps):
                if case.exact_memory is not None:
                    oracle, seconds = timed(case.exact_memory)
                    memory[case.name].append(seconds)
                if number == 0 or workload.scan_every_round:
                    scanned, seconds = timed(case.exact_scan)
                    scan[case.name].append(seconds)
                    if oracle is None:
                        oracle = scanned
                    del scanned
            if oracle is not None:
                outcome.check(
                    f"{case.name} round {number}",
                    final_matches(answer, oracle, case.keys, case.values),
                )
    executions = sum(len(v) for v in final.values())
    yardstick = scan if not any(memory.values()) else memory
    rows = []
    for case in cases:
        name = case.name
        rows.append({
            "query": name,
            "first_s": median(first[name]),
            "final_s": median(final[name]),
            "exact_memory_s": (median(memory[name])
                               if memory[name] else None),
            "exact_scan_s": median(scan[name]),
            "final_slowdown_x": (median(final[name])
                                 / median(yardstick[name])),
            "first_speedup_x": (median(scan[name])
                                / median(first[name])),
            "reps": len(final[name]),
        })
    slowdowns = [r["final_slowdown_x"] for r in rows]
    speedups = [r["first_speedup_x"] for r in rows]
    outcome.detail.update({
        "queries": rows,
        "rounds": len(final[cases[0].name]),
        # The paper quotes medians over queries (1.3x / 4.93x); the
        # declared metrics are geometric means, which a single query's
        # noise moves far less.
        "median_final_slowdown_x": median(slowdowns),
        "median_first_speedup_x": median(speedups),
        "exact_memory_s": sum(r["exact_memory_s"] or 0.0 for r in rows),
        "exact_scan_s": sum(r["exact_scan_s"] for r in rows),
    })
    outcome.metrics.update({
        "setup_s": workload.setup_metrics["setup_s"],
        "first_estimate_s": geomean([r["first_s"] for r in rows]),
        "final_s": geomean([r["final_s"] for r in rows]),
        "final_slowdown_x": geomean(slowdowns),
        "first_speedup_x": geomean(speedups),
        "queries_per_s": executions / busy,
        "peak_rss_mb": peak_rss_mb(),
    })
    return outcome


# ---------------------------------------------------------------------------
# Layer by layer (tracing on)
# ---------------------------------------------------------------------------


def _plan_only(workload: Workload, case: Case, validate: bool) -> float:
    """Seconds ``executor_for`` takes with static validation on/off."""
    ctx = workload.ctx
    plan = case.build(ctx)
    executor, seconds = timed(
        ctx.executor_for, plan, capture_all=workload.capture_all,
        options=ctx.options.merged(validate=validate),
        **case.executor_kwargs,
    )
    executor.close()
    return seconds


def _late_over_early(step_times: Sequence[float]) -> float | None:
    quarter = len(step_times) // 4
    if quarter < 2:
        return None
    return (sum(step_times[-quarter:]) / sum(step_times[:quarter]))


def _trace_case(workload: Workload, case: Case, tracer: Tracer,
                traced_first: bool,
                outcome: Outcome) -> tuple[dict, dict, list[float]]:
    """One query untraced and traced back to back, reconciled, checked
    and (when ``case.scored``) scored; returns its row of the "where
    the time goes" table, its per-kind recorder totals and its step
    times."""
    if traced_first:
        traced = _run(workload, case, tracer)
        plain = _run(workload, case)
    else:
        plain = _run(workload, case)
        traced = _run(workload, case, tracer)
    kinds = traced.recorder.kinds
    step_s = sum(traced.step_times)
    overhead_s = step_s - op_seconds(kinds) - read_seconds(kinds)
    accounted = traced.build_s + traced.plan_s + step_s
    gap = abs(traced.final_s - accounted) / traced.final_s
    if (gap > RECONCILE_TOLERANCE
            or overhead_s < -RECONCILE_TOLERANCE * step_s):
        outcome.violations.append(
            f"{case.name}: layers sum to {accounted:.4f}s of "
            f"{traced.final_s:.4f}s wall (gap {gap:.1%}, executor "
            f"overhead {overhead_s:.4f}s)"
        )
    oracle = None
    memory_s = scan_s = None
    if case.exact_memory is not None:
        oracle, memory_s = timed(case.exact_memory)
    if case.exact_memory is None or workload.scan_every_round:
        scanned, scan_s = timed(case.exact_scan)
        oracle = scanned if oracle is None else oracle
        del scanned
    for label, execution in (("plain", plain), ("traced", traced)):
        outcome.check(
            f"{case.name} {label}",
            final_matches(execution.edf.get_final(), oracle,
                          case.keys, case.values),
        )
    first_error = settle_s = None
    if case.scored:
        scored = (traced if workload.capture_all
                  else _run(workload, case, capture_all=True))
        series = converged_errors(scored, oracle, case.keys, case.values)
        first_error = series[0][1]
        settle_s = time_to_error(series, ERROR_THRESHOLD_PCT)
    row = {
        "query": case.name,
        "wall_s": traced.final_s,
        "untraced_wall_s": plain.final_s,
        "api_build_s": traced.build_s,
        "engine_plan_s": traced.plan_s,
        "validate_s": (_plan_only(workload, case, True)
                       - _plan_only(workload, case, False)),
        "plan_nodes": traced.plan_nodes,
        "optimizer_rewrites": traced.rewrites,
        "step_s": step_s,
        "storage_read_s": read_seconds(kinds),
        "op_self_s": {k: e[2] for k, e in kinds.items() if k != "read"},
        "executor_overhead_s": overhead_s,
        "steps": traced.steps,
        "snapshots": traced.snapshots,
        "late_over_early": _late_over_early(traced.step_times),
        "exact_memory_s": memory_s,
        "exact_scan_s": scan_s,
        "first_mape_pct": first_error,
        "t_err5_s": settle_s,
    }
    return row, kinds, traced.step_times


def trace(workload: Workload, cfg: Config) -> Outcome:
    outcome = Outcome()
    tracer = Tracer()
    _warm_up(workload)
    # Alternate which of a pair runs first so drift on a shared host
    # does not read as tracing overhead.
    rows: list[dict] = []
    kinds: dict[str, list] = {}
    step_times: list[float] = []
    for index, case in enumerate(workload.cases * workload.trace_reps):
        row, case_kinds, case_steps = _trace_case(
            workload, case, tracer, bool(index % 2), outcome)
        rows.append(row)
        merge_kinds(kinds, case_kinds)
        step_times.extend(case_steps)
    peak_bytes = 0
    for case in workload.peak_cases:
        tracemalloc.start()
        try:
            _run(workload, case)
            peak_bytes = max(peak_bytes,
                             tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Median over queries: a real overhead shows in every pair, a host
    # hiccup during one execution does not.
    overhead_x = median([r["wall_s"] / r["untraced_wall_s"]
                         for r in rows])
    if overhead_x > TRACE_OVERHEAD_LIMIT:
        outcome.violations.append(
            f"tracing slowed the workload {overhead_x:.3f}x "
            f"(limit {TRACE_OVERHEAD_LIMIT}x)"
        )

    def total(key: str) -> float:
        return sum(r[key] or 0.0 for r in rows)

    def known(key: str) -> list[float]:
        return [r[key] for r in rows if r[key] is not None]

    metrics = outcome.metrics
    metrics.update(operator_metrics(kinds))
    metrics.update(scan_metrics(tracer.scan))
    metrics.update({
        "api.build_s": total("api_build_s"),
        "engine.plan_s": total("engine_plan_s"),
        "analysis.validate_s": total("validate_s"),
        "engine.plan_nodes": total("plan_nodes"),
        "engine.optimizer_rewrites": total("optimizer_rewrites"),
        "engine.step_s": total("step_s"),
        "engine.steps": total("steps"),
        "engine.step_p50_ms": 1e3 * median(step_times),
        "engine.step_max_ms": 1e3 * max(step_times),
        "engine.step_late_over_early": (
            median(known("late_over_early"))
            if known("late_over_early") else 0.0),
        "engine.executor.overhead_s": total("executor_overhead_s"),
        "engine.snapshots": total("snapshots"),
        "engine.trace_overhead_x": overhead_x,
        "engine.peak_traced_mb": peak_bytes / 2**20,
    })
    if known("exact_memory_s"):
        metrics["baselines.exact_memory_s"] = total("exact_memory_s")
    if known("exact_scan_s"):
        metrics["baselines.exact_scan_s"] = total("exact_scan_s")
    if known("t_err5_s"):
        errors = [e for e in known("first_mape_pct") if np.isfinite(e)]
        metrics["quality.first_mape_pct"] = (median(errors)
                                             if errors else 0.0)
        metrics["quality.t_err5_s"] = geomean(known("t_err5_s"))
    metrics.update({k: v for k, v in workload.setup_metrics.items()
                    if k != "setup_s"})
    outcome.detail["queries"] = rows
    outcome.spans = tracer.to_json()
    return outcome

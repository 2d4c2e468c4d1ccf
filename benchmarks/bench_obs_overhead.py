"""Experiment E16 — telemetry overhead on the metered fast path.

The observability layer (metrics registry + tracing + scan/step
instruments) must be near-free: every seam pays one ``is None`` check
when telemetry is off, and pre-bound instruments (one attribute call +
a locked float add) when it is on — no label-dict allocation, no
registry lookup per message (enforced by the ``metric-hot-lookup``
lint rule).  This experiment measures it end to end: the same TPC-H
queries driven through the fair-share scheduler bare vs fully
instrumented (registry + tracer + scan metrics attached).  The two arms
run as back-to-back pairs, in alternating order, and the guard reads
the median of the per-pair ratios: the two runs of a pair share the
machine's state, so foreign load that lands on one pair moves both of
its runs instead of reading as telemetry cost.  Comparing each arm's
own median of its fastest of three passes (``fastest_per_sample``)
read 0.88–1.10 on unchanged code on a shared 2-cpu VM.

Acceptance bar (CI perf guard): **<= 5 % median overhead**.

A second test asserts the stronger contract the overhead bound rides
on: snapshot *sequences* are byte-identical with telemetry on and off
(equality asserts — telemetry may never change result bytes).
"""

import time

import numpy as np

from repro import WakeContext
from repro.bench.report import banner, format_table
from repro.obs import MetricsRegistry, ServiceInstruments, Tracer
from repro.service import FairShareScheduler, SessionState
from repro.tpch.queries import QUERIES

QUERY_NUMBERS = (1, 6)
ROUNDS = 15


def _run_once(catalog, number, telemetry):
    ctx = WakeContext(catalog)
    if telemetry:
        registry = MetricsRegistry()
        instruments = ServiceInstruments(registry)
        tracer = Tracer(clock=registry.clock)
        trace = tracer.begin(f"q{number:02d}")
    else:
        instruments = None
        trace = None
    scheduler = FairShareScheduler(metrics=instruments)
    plan = QUERIES[number].build_plan(ctx)
    start = time.perf_counter()
    executor = ctx.executor_for(plan, trace=trace)
    if instruments is not None:
        executor.scan_metrics = instruments.scan
    session = scheduler.submit(executor, trace=trace)
    scheduler.run_until_idle()
    elapsed = time.perf_counter() - start
    assert session.state is SessionState.DONE
    if instruments is not None:
        # The pre-bound step counter agrees exactly with the session's
        # own step count — telemetry observed every step, missed none.
        assert instruments.scheduler.steps.value == session.steps
    return elapsed, session


def test_telemetry_overhead_under_5_percent(bench_data, guard, emit):
    catalog, _tables = bench_data
    for number in QUERY_NUMBERS:  # warm page cache + imports
        _run_once(catalog, number, False)
    plain: dict[int, list[float]] = {n: [] for n in QUERY_NUMBERS}
    metered: dict[int, list[float]] = {n: [] for n in QUERY_NUMBERS}
    for round_no in range(ROUNDS):  # interleaved pairs, ABAB / BABA
        for number in QUERY_NUMBERS:
            arms = [(False, plain), (True, metered)]
            if round_no % 2:
                arms.reverse()
            for telemetry, times in arms:
                times[number].append(
                    _run_once(catalog, number, telemetry)[0])

    rows = []
    ratios: list[float] = []
    for number in QUERY_NUMBERS:
        pairs = (np.asarray(metered[number])
                 / np.maximum(plain[number], 1e-9))
        ratios.extend(pairs)
        rows.append([f"q{number:02d}", np.median(plain[number]) * 1000.0,
                     np.median(metered[number]) * 1000.0,
                     float(np.median(pairs))])
    # Guard the median over every pair of both queries: one pair's
    # ratio carries a few percent of scheduler jitter, the median of
    # 2 x ROUNDS of them is the stable signal a regression would move.
    ratio = float(np.median(ratios))
    rows.append(["all pairs", np.median(sum(plain.values(), [])) * 1000.0,
                 np.median(sum(metered.values(), [])) * 1000.0, ratio])

    emit(banner(
        f"E16 — telemetry overhead, full instrumentation ({ROUNDS} "
        f"rounds, median of per-pair ratios)"
    ))
    emit(format_table(
        ["query", "bare ms", "instrumented ms", "median ratio"], rows
    ))
    guard("obs_overhead_ratio", ratio, 1.05, op="<=")


def test_telemetry_never_changes_result_bytes(bench_data, emit):
    """Snapshot sequences must be byte-identical with telemetry on and
    off — telemetry observes, it never participates."""
    catalog, _tables = bench_data
    for number in QUERY_NUMBERS:
        _, bare = _run_once(catalog, number, False)
        _, metered = _run_once(catalog, number, True)
        base = bare.executor.edf
        obs = metered.executor.edf
        assert len(base) == len(obs)
        for left, right in zip(base.snapshots, obs.snapshots):
            assert left.sequence == right.sequence
            assert left.t == right.t
            assert dict(left.progress.done) == dict(right.progress.done)
            assert tuple(left.frame.column_names) == \
                tuple(right.frame.column_names)
            for name in left.frame.column_names:
                assert (
                    left.frame.column(name).tobytes()
                    == right.frame.column(name).tobytes()
                )
    emit(banner(
        "E16 — telemetry on/off snapshot sequences byte-identical "
        f"(q{QUERY_NUMBERS[0]:02d}, q{QUERY_NUMBERS[1]:02d})"
    ))

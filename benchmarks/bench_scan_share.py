"""Experiment E15 — shared scans + the result cache.

Two guards for the multi-query scan layer:

* **shared-scan speedup** — 8 identical submissions of a scan-dominated
  query (a full-schema pass over lineitem) through one
  :class:`ScanShareManager` must finish ≥3x faster in aggregate than
  the same batch with sharing off: with sharing, the batch pays ~1
  physical decompress per partition instead of 8 (lazy subscription
  costs a few cold-start reads).  TPC-H q06 (projected scan) and q01
  (compute-bound aggregation) ride along under a no-regression floor —
  sharing cannot speed up work that isn't reads, but it must never
  slow anything down.
* **attach latency** — with the result cache on, a duplicate submit
  attaches to the finished primary by replaying buffered snapshot
  references: O(prefix) pointer appends + one plan build/hash, never a
  re-execution.  The guard holds the attach to single-digit
  milliseconds (generous 50 ms bound for CI noise) and to a large
  multiple cheaper than the primary's execution.

Wall-clocks come from ``PASSES`` interleaved passes of ``REPEATS``
share-off / share-on batch pairs: each repeat counts with its fastest
pass (``fastest_per_sample``, the least-noise estimate of the true
cost) and the speedup is the ratio of the medians, so foreign load that
lands on one side of one pass does not read as a regression.  Both
tests record into ``benchmarks/results/BENCH_summary.json`` via the
``guard`` fixture.
"""

import gc
import time

import numpy as np

from repro import ExecutionOptions, WakeContext
from repro.service import (
    FairShareScheduler,
    QueryService,
    ScanShareManager,
    SessionState,
)
from repro.tpch.queries import QUERIES

from benchmarks.conftest import BENCH_OVERRIDES
from repro.bench.metrics import fastest_per_sample
from repro.bench.report import banner, format_table

#: Copies of the query per batch — the fan-out width.
BATCH_WIDTH = 8

#: Share-off / share-on batch pairs per pass, and interleaved passes.
REPEATS = 2
PASSES = 3

#: Aggregate wall-clock speedup floor for the scan-dominated batch
#: (ideal is ~BATCH_WIDTH on the read portion; per-session dispatch,
#: snapshotting, and the lazy-subscription cold reads eat the rest;
#: measured ~3.6-4.0x at the default bench scale).
SCAN_SPEEDUP_FLOOR = 3.0

#: The projected / compute-bound companions only have to not regress.
NO_REGRESSION_FLOOR = 1.0

#: Attach must be O(ms): bound generous enough for CI timer noise yet
#: orders of magnitude below any re-execution.
ATTACH_LATENCY_BOUND_S = 0.050

#: ... and at least this many times cheaper than executing the plan.
ATTACH_SPEEDUP_FLOOR = 5.0


def _full_scan_plan(ctx):
    """A scan-dominated query: pushdown off forces every partition read
    to decompress the full lineitem schema, while the aggregate itself
    is one running sum."""
    return ctx.table("lineitem").sum("l_quantity")


def _run_batch(catalog, build, share, options=None):
    """Wall-clock for BATCH_WIDTH identical submissions driven to
    completion through one scheduler; returns (seconds, pool stats)."""
    scheduler = FairShareScheduler()
    manager = ScanShareManager() if share else None
    sessions = []
    for _ in range(BATCH_WIDTH):
        ctx = WakeContext(catalog)
        executor = ctx.executor_for(build(ctx), options=options)
        if manager is not None:
            executor.scan_share = manager
        sessions.append(scheduler.submit(executor))
    started = time.perf_counter()
    scheduler.run_until_idle()
    elapsed = time.perf_counter() - started
    assert all(s.state is SessionState.DONE for s in sessions)
    return elapsed, (dict(manager.stats()) if manager else None)


def _interleaved(catalog, build, options=None):
    """(share-off seconds, share-on seconds, pool stats): per repeat the
    fastest of ``PASSES`` interleaved passes, then the median."""
    off = [[] for _ in range(PASSES)]
    on = [[] for _ in range(PASSES)]
    stats = None
    for pass_no in range(PASSES):
        for _ in range(REPEATS):
            off[pass_no].append(_run_batch(catalog, build, share=False,
                                          options=options)[0])
            elapsed, stats = _run_batch(catalog, build, share=True,
                                        options=options)
            on[pass_no].append(elapsed)
    return (float(np.median(fastest_per_sample(*off))),
            float(np.median(fastest_per_sample(*on))), stats)


def test_scan_share_speedup(bench_data, emit, guard):
    catalog, _tables = bench_data
    no_pushdown = ExecutionOptions(pushdown=False)

    def tpch(number):
        def build(ctx):
            return QUERIES[number].build_plan(
                ctx, **BENCH_OVERRIDES.get(number, {})
            )
        return build

    workloads = [
        ("full scan", _full_scan_plan, no_pushdown,
         SCAN_SPEEDUP_FLOOR),
        ("projected scan (q06)", tpch(6), None, NO_REGRESSION_FLOOR),
        ("compute-bound (q01)", tpch(1), None, NO_REGRESSION_FLOOR),
    ]
    emit(banner(
        f"E15 — shared scans: {BATCH_WIDTH} identical queries, "
        f"one pool"
    ))
    rows, measured = [], []
    for label, build, options, floor in workloads:
        _run_batch(catalog, build, share=False,
                   options=options)  # warm the page cache
        off, on, stats = _interleaved(catalog, build, options=options)
        ratio = off / max(on, 1e-9)
        measured.append((label, ratio, floor))
        rows.append([
            label, f"{off * 1e3:.1f}", f"{on * 1e3:.1f}",
            f"{ratio:.2f}x", f"{floor}x",
            stats["physical_reads"], stats["shared_hits"],
        ])
    emit(format_table(
        ["batch", "share off (ms)", "share on (ms)", "speedup",
         "floor", "physical reads", "pool hits"],
        rows,
    ))
    for label, ratio, floor in measured:
        metric = "scan_share_speedup_" + \
            label.split("(")[0].strip().replace(" ", "_")
        guard(metric, ratio, floor)


def test_attach_latency(bench_data, emit, guard):
    catalog, _tables = bench_data
    ctx = WakeContext(
        catalog,
        options=ExecutionOptions(scan_share=True, result_cache=True),
    )
    service = QueryService(ctx)

    # Each timed window starts with no collectable garbage, so a
    # generation-2 collection owed to earlier tests (25-35 ms with the
    # perf-guard list's modules loaded) cannot land in a ~2 ms attach.
    gc.collect()
    started = time.perf_counter()
    primary = service.submit("q01")
    while service.scheduler.run_once() is not None:
        pass
    execute_s = time.perf_counter() - started
    assert primary.state is SessionState.DONE

    gc.collect()
    started = time.perf_counter()
    attached = service.submit("q01")
    attach_s = time.perf_counter() - started
    assert attached.status()["cache_hit"]
    assert attached.state is SessionState.DONE

    speedup = execute_s / max(attach_s, 1e-9)
    emit(banner("E15 — result-cache attach latency"))
    emit(format_table(
        ["path", "wall (ms)", "snapshots"],
        [["execute (primary)", f"{execute_s * 1e3:.2f}",
          len(primary.buffer)],
         ["attach (replay)", f"{attach_s * 1e3:.3f}",
          len(attached.buffer)]],
    ))
    emit(f"\nattach is {speedup:.0f}x cheaper "
         f"(bound: <= {ATTACH_LATENCY_BOUND_S * 1e3:.0f} ms, "
         f">= {ATTACH_SPEEDUP_FLOOR}x)")
    guard("attach_latency_s", attach_s, ATTACH_LATENCY_BOUND_S,
          op="<=")
    guard("attach_speedup", speedup, ATTACH_SPEEDUP_FLOOR)

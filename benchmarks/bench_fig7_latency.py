"""Experiment E1 — Fig 7 + §8.2: first-estimate vs final latency across
all 22 TPC-H queries, Wake vs the exact engines.

Paper's claims to reproduce in *shape*:
* Wake's first estimate arrives a large factor before any exact engine's
  final answer (paper: 4.93× median vs the fastest exact system);
* Wake's exact answer costs a small constant factor over the in-memory
  exact engine (paper: ~1.3× median);
* subquery-heavy queries (Q2, Q17) have first ≈ final (negligible gains).
"""

from conftest import BENCH_OVERRIDES, BENCH_PARTITIONS, BENCH_SF

from repro.baselines import ExactEngine
from repro.bench import median_or_nan, run_wake
from repro.bench.harness import LatencyRow
from repro.bench.report import banner, format_table
from repro.bench.workloads import METRIC_COLUMNS
from repro.tpch.queries import QUERIES


def run_all(bench_data, bench_ctx):
    catalog, tables = bench_data
    memory_engine = ExactEngine(tables=tables, mode="memory")
    scan_engine = ExactEngine(catalog=catalog, mode="scan")
    rows: list[LatencyRow] = []
    for number in sorted(QUERIES):
        query = QUERIES[number]
        overrides = BENCH_OVERRIDES.get(number, {})
        keys, values = METRIC_COLUMNS[number]
        exact_mem = memory_engine.run(query, **overrides)
        exact_scan = scan_engine.run(query, **overrides)
        plan = query.build_plan(bench_ctx, **overrides)
        run = run_wake(
            bench_ctx, plan, exact=exact_mem.frame, keys=keys,
            values=values, capture_all=False,
        )
        rows.append(
            LatencyRow(
                query=query.name,
                wake_first=run.first_latency,
                wake_final=run.final_latency,
                exact_memory=exact_mem.wall_time,
                exact_scan=exact_scan.wall_time,
                first_mape=run.first_quality.mape,
            )
        )
    return rows


def test_fig7_latency_all_queries(bench_data, bench_ctx, benchmark,
                                  guard, emit):
    rows = benchmark.pedantic(
        lambda: run_all(bench_data, bench_ctx), rounds=1, iterations=1
    )
    emit(banner("Fig 7 — query latency: Wake first/final vs exact "
                "engines (seconds)"))
    emit(f"TPC-H SF {BENCH_SF:g}, {BENCH_PARTITIONS} fact partitions")
    emit(format_table(
        ["query", "wake-first", "wake-final", "exact-mem",
         "exact-scan", "first-MAPE%", "first-speedup", "slowdown"],
        [
            [
                r.query, r.wake_first, r.wake_final, r.exact_memory,
                r.exact_scan, r.first_mape,
                r.first_speedup_vs_scan, r.final_slowdown_vs_memory,
            ]
            for r in rows
        ],
    ))
    first_speedups = [r.first_speedup_vs_scan for r in rows]
    slowdowns = [r.final_slowdown_vs_memory for r in rows]
    mapes = [r.first_mape for r in rows]
    emit("")
    emit(f"median first-estimate speedup vs exact-scan final : "
         f"{median_or_nan(first_speedups):.2f}x  (paper: 4.93x vs "
         f"fastest exact)")
    emit(f"median Wake-final slowdown vs exact-memory        : "
         f"{median_or_nan(slowdowns):.2f}x  (paper: 1.3x)")
    emit(f"median first-estimate MAPE                        : "
         f"{median_or_nan(mapes):.2f}%  (paper: 2.70%)")

    # Shape assertions (who wins, roughly by how much).  Note on scale:
    # the paper's 1.3x final-slowdown is measured at 100 GB where
    # per-snapshot engine overhead amortizes; at laptop SF the constant
    # Python overhead per refinement step dominates trivial queries, so
    # the bound here is loose (benchmarks/e2e/RESULTS.md quantifies
    # this: 12x near SF 0.0025, 1.6x at SF 0.1).
    # First estimates should land well before exact-scan finals.
    guard("first_speedup_median", median_or_nan(first_speedups), 1.5,
          op=">")
    # Wake-final should stay within a bounded factor of exact-memory.
    guard("final_slowdown_median", median_or_nan(slowdowns), 40.0,
          op="<")
    # Q2/Q17: subquery-blocked — first estimate close to final (§8.2)
    by_name = {r.query: r for r in rows}
    subquery_first_vs_final = min(
        by_name[name].wake_first / by_name[name].wake_final
        for name in ("q02", "q17")
    )
    guard("subquery_blocked_first_vs_final_min",
          subquery_first_vs_final, 0.3, op=">")

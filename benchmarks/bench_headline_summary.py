"""Experiment E10 — the paper's headline metrics (abstract / §8 bullets),
computed over this reproduction's substrate:

* median first-estimate speedup vs exact systems' final answers
  (paper: 4.93× vs the fastest exact engine);
* median slowdown of Wake's exact answer (paper: 1.3×);
* median relative error of the first estimate (paper: 2.70%);
* time to <1% error vs the best exact engine's final (paper: 3.17×
  faster on average);
* vs existing OLA systems to <1% error (paper: 1.92× faster median).
"""

from conftest import BENCH_OVERRIDES, BENCH_SF

from repro.baselines import ExactEngine, ProgressiveScan
from repro.bench import median_or_nan, metrics, run_wake
from repro.bench.report import banner, format_table
from repro.bench import workloads
from repro.bench.workloads import METRIC_COLUMNS
from repro.tpch.queries import QUERIES


def compute_headlines(bench_data, bench_ctx):
    catalog, tables = bench_data
    memory_engine = ExactEngine(tables=tables, mode="memory")
    scan_engine = ExactEngine(catalog=catalog, mode="scan")

    first_speedups, slowdowns, first_mapes, sub1_speedups = [], [], [], []
    for number in sorted(QUERIES):
        query = QUERIES[number]
        overrides = BENCH_OVERRIDES.get(number, {})
        keys, values = METRIC_COLUMNS[number]
        exact_mem = memory_engine.run(query, **overrides)
        exact_scan = scan_engine.run(query, **overrides)
        plan = query.build_plan(bench_ctx, **overrides)
        run = run_wake(bench_ctx, plan, exact=exact_mem.frame,
                       keys=keys, values=values)
        best_exact = min(exact_mem.wall_time, exact_scan.wall_time)
        first_speedups.append(
            metrics.ratio(exact_scan.wall_time, run.first_latency))
        slowdowns.append(
            metrics.ratio(run.final_latency, exact_mem.wall_time))
        first_mapes.append(run.first_quality.mape)
        t1 = run.time_to_error(1.0)
        if t1 is not None:
            sub1_speedups.append(metrics.ratio(best_exact, t1))

    # OLA comparison: time-to-<1% on the shared modified queries.
    ola_ratios = []
    for name, metric_cols in (("q1", workloads.MODIFIED_Q1_METRICS),
                              ("q6", workloads.MODIFIED_Q6_METRICS)):
        exact = getattr(workloads, f"modified_{name}_exact")(
            tables.tables)
        keys, values = metric_cols
        wake_run = run_wake(
            bench_ctx,
            getattr(workloads, f"modified_{name}_wake")(bench_ctx),
            exact=exact, keys=keys, values=values,
        )
        scan = ProgressiveScan(
            catalog.table("lineitem"),
            chunk_rows=max(500,
                           catalog.table("lineitem").total_tuples // 32),
            middleware_overhead=0.02,
        )
        estimates = scan.run(
            getattr(workloads, f"modified_{name}_progressive")())
        prog_series = [
            (e.wall_time, metrics.mape(e.frame, exact, keys, values))
            for e in estimates
        ]
        wake_t1 = wake_run.time_to_error(1.0)
        prog_t1 = metrics.time_to_error(prog_series, 1.0)
        if wake_t1 and prog_t1:
            ola_ratios.append(prog_t1 / wake_t1)

    return {
        "first_speedup": median_or_nan(first_speedups),
        "final_slowdown": median_or_nan(slowdowns),
        "first_mape": median_or_nan(first_mapes),
        "sub1_speedup": median_or_nan(sub1_speedups),
        "ola_speedup": median_or_nan(ola_ratios),
    }


def test_headline_summary(bench_data, bench_ctx, benchmark, guard,
                          emit):
    headlines = benchmark.pedantic(
        lambda: compute_headlines(bench_data, bench_ctx), rounds=1,
        iterations=1,
    )
    emit(banner("Headline metrics — this reproduction vs the paper "
                f"(TPC-H SF {BENCH_SF:g})"))
    emit(format_table(
        ["metric", "reproduction", "paper"],
        [
            ["median first-estimate speedup",
             f"{headlines['first_speedup']:.2f}x", "4.93x"],
            ["median final-answer slowdown",
             f"{headlines['final_slowdown']:.2f}x", "1.3x"],
            ["median first-estimate MAPE",
             f"{headlines['first_mape']:.2f}%", "2.70%"],
            ["median <1%-error speedup vs best exact",
             f"{headlines['sub1_speedup']:.2f}x", "3.17x (mean)"],
            ["median <1%-error speedup vs OLA",
             f"{headlines['ola_speedup']:.2f}x", "1.92x"],
        ],
    ))
    emit("\nNotes: absolute factors are scale-dependent (laptop SF vs "
         "the paper's 100 GB / 16 vCPU testbed); the qualitative "
         "relations — first estimates far earlier than exact finals, "
         "bounded final overhead, faster-than-OLA convergence — are the "
         "reproduced claims.  benchmarks/e2e/RESULTS.md has the "
         "SF 0.1 numbers.")

    guard("headline_first_speedup", headlines["first_speedup"], 1.5,
          op=">")
    guard("headline_ola_speedup", headlines["ola_speedup"], 1.0,
          op=">")
"""Ablation — growth-based inference (§5.2) vs fixed scaling rules.

The cardinality growth model (README.md: growth-based inference, §5) is
the load-bearing design choice of Wake's estimator stack.  The same aggregation runs under
three scaling strategies:

* ``fitted``  — the paper's monomial fit of w (growth-based inference);
* ``uniform`` — classic OLA scaling by 1/t (w pinned to 1), i.e. what a
  single-level ProgressiveDB-style system does;
* ``none``    — raw merged values (w pinned to 0).

Two workloads span the growth regimes of Fig 4:

* **A (base stream, w ≈ 1)** — ``orders.count(by=o_custkey)``: group
  cardinalities grow with the scan.  ``none`` under-projects everything;
  ``uniform`` and ``fitted`` are both right.
* **B (aggregate-over-aggregate, w ≈ 0)** — counting the rows of that
  aggregate's *output* (number of distinct customers).  The input
  snapshots stabilize early; ``uniform`` over-projects by 1/t (≈ 2× at
  half progress); ``none`` and ``fitted`` are right.

Only the fitted model is accurate in *both* regimes — exactly the
paper's argument for why Deep OLA needs growth inference rather than a
fixed scaling rule.
"""

import numpy as np

from repro import F, WakeContext
from repro.bench import run_wake
from repro.bench.report import banner, format_table
from repro.dataframe import AggSpec, group_aggregate

MODES = ("fitted", "uniform", "none")


def workload_a(ctx: WakeContext, mode: str):
    """Base-stream grouped count (linear growth regime)."""
    return ctx.table("orders").agg(
        F.count(None).alias("n_orders"), by=["o_custkey"],
        growth=mode,
    )


def workload_b(ctx: WakeContext, mode: str):
    """Aggregate over an aggregate (stable-cardinality regime)."""
    per_cust = ctx.table("orders").agg(
        F.count(None).alias("n_orders"), by=["o_custkey"]
    )
    return per_cust.agg(F.count(None).alias("n_customers"),
                        growth=mode)


def run_ablation(bench_data):
    catalog, tables = bench_data
    exact_a = group_aggregate(
        tables["orders"], ["o_custkey"],
        [AggSpec("count", None, "n_orders")],
    )
    n_customers = float(exact_a.n_rows)
    results = {}
    for mode in MODES:
        ctx = WakeContext(catalog)
        run_a = run_wake(ctx, workload_a(ctx, mode), exact=exact_a,
                         keys=["o_custkey"], values=["n_orders"])
        results[("A", mode)] = [(q.t, q.mape) for q in run_a.quality]
        edf_b = ctx.run(workload_b(ctx, mode))
        results[("B", mode)] = [
            (s.t,
             100.0 * abs(float(s.frame.column("n_customers")[0])
                         - n_customers) / n_customers)
            for s in edf_b.snapshots if s.frame.n_rows
        ]
    return results


def _mid_mean(series):
    mid = [m for t, m in series if 0.2 <= t <= 0.9 and not np.isnan(m)]
    return float(np.mean(mid)) if mid else float("nan")


def test_ablation_growth_model(bench_data, benchmark, guard, emit):
    results = benchmark.pedantic(lambda: run_ablation(bench_data),
                                 rounds=1, iterations=1)
    for label, title in (
        ("A", "workload A — orders.count(by=o_custkey), w ≈ 1"),
        ("B", "workload B — count of the aggregate's rows, w ≈ 0"),
    ):
        emit(banner(f"Ablation ({title}): MAPE% by scaling strategy"))
        series = {mode: results[(label, mode)] for mode in MODES}
        n = min(len(s) for s in series.values())
        emit(format_table(
            ["t", *MODES],
            [
                [series["fitted"][i][0]]
                + [series[m][i][1] for m in MODES]
                for i in range(n)
            ],
        ))
        emit("mid-stream mean MAPE: " + "  ".join(
            f"{m}={_mid_mean(series[m]):.1f}%" for m in MODES
        ))

    a = {m: _mid_mean(results[("A", m)]) for m in MODES}
    b = {m: _mid_mean(results[("B", m)]) for m in MODES}

    # Regime A: scaling is necessary — 'none' badly under-projects.
    guard("regime_a_fitted_vs_none_mape_ratio",
          a["fitted"] / a["none"], 0.8, op="<")
    # Regime B: blind 1/t scaling over-projects aggregate-over-aggregate.
    guard("regime_b_fitted_vs_uniform_mape_ratio",
          b["fitted"] / b["uniform"], 0.8, op="<")
    # Only the fitted model is good in both regimes.
    fitted_worst = max(a["fitted"], b["fitted"])
    uniform_worst = max(a["uniform"], b["uniform"])
    none_worst = max(a["none"], b["none"])
    assert fitted_worst < uniform_worst
    assert fitted_worst < none_worst
    # And everything still converges exactly (2C).
    final_mape_worst = max(series[-1][1] for series in results.values())
    guard("final_mape_worst", final_mape_worst, 1e-9, op="<")
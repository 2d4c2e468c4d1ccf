"""Experiment E15 — optimizer cost.

The optimizer runs on every ``submit``, so it must be effectively free
next to execution.  The guard: the two pushdown passes, their soundness
checks and the plan hash over all 22 TPC-H plans; every plan must
optimize in **< 5 ms** (best of three, the CI perf guard).  Each pass
is one walk over a plan of tens of nodes, so there is plenty of
headroom.
"""

import time

from conftest import BENCH_OVERRIDES

from repro import WakeContext
from repro.bench.report import banner, format_table
from repro.engine.graph import QueryGraph
from repro.engine.optimizer import optimize
from repro.tpch.queries import QUERIES

#: Planning budget per TPC-H plan (milliseconds).
PLANNING_BUDGET_MS = 5.0
REPEATS = 3


def test_planning_latency_under_budget(bench_data, guard, emit):
    catalog, _tables = bench_data
    rows = []
    worst = 0.0
    for number in sorted(QUERIES):
        ctx = WakeContext(catalog)
        frame = QUERIES[number].build_plan(
            ctx, **BENCH_OVERRIDES.get(number, {})
        )
        best_ms = float("inf")
        n_nodes = rewrites = 0
        for _ in range(REPEATS):
            graph = QueryGraph()
            output = frame.plan.materialize(graph, {})
            start = time.perf_counter()
            trace = optimize(graph, output)
            best_ms = min(best_ms,
                          (time.perf_counter() - start) * 1000.0)
            n_nodes = len(graph.nodes)
            rewrites = trace.total_rewrites
        worst = max(worst, best_ms)
        rows.append([f"q{number}", n_nodes, rewrites, best_ms])
    emit(banner(
        "E15 — optimizer planning latency (22 TPC-H plans, "
        f"both pushdown passes, best of {REPEATS})"
    ))
    emit(format_table(
        ["query", "nodes (opt)", "rewrites", "plan ms"], rows,
    ))
    guard("planning_ms_worst_query", worst, PLANNING_BUDGET_MS, op="<")

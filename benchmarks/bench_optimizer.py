"""Experiment E15 — optimizer cost.

The optimizer runs on every ``submit``, so it must be effectively free
next to execution.  The first guard times ``optimize(graph, output)``
over each of the 22 materialized TPC-H plans: the two pushdown passes,
one re-derivation after each pass that rewrote something (the soundness
check, and what the executor binds from), the plan hash, and one
derivation of the whole plan up front.  A submit no longer pays that
last one (each plan node derived its stream when it was built), so the
guard is an upper bound on a submit's planning.  Every plan must
optimize in **< 5 ms** (best of three, the CI perf guard).  Each step
is one walk over a plan of tens of nodes, so there is plenty of
headroom.

The second guard times what a user waits for on a deep plan: building
a chain of 16 joins through the fluent API plus ``executor_for``, under
the same budget.  Building derives each node once, from its inputs'
stored streams, so the chain costs O(k) derivations, not the O(k²)
that deriving every upstream plan again at each ``join`` would.
"""

import time

from conftest import BENCH_OVERRIDES

from repro import WakeContext, col
from repro.bench.report import banner, format_table
from repro.engine.graph import QueryGraph
from repro.engine.optimizer import optimize
from repro.tpch.queries import QUERIES

#: Planning budget per TPC-H plan (milliseconds).
PLANNING_BUDGET_MS = 5.0
REPEATS = 3
#: Joins in the chain of the second guard.
CHAIN_JOINS = 16


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
            output = frame.plan.materialize(graph, {}, ctx.options)
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


def _join_chain(ctx, k):
    """``lineitem`` joined ``k`` times with ``orders`` under a renamed
    key: 3k + 1 plan nodes."""
    frame = ctx.table("lineitem")
    for i in range(k):
        right = ctx.table("orders").select(**{f"o{i}": col("o_orderkey")})
        frame = frame.join(right, on=[("l_orderkey", f"o{i}")])
    return frame


def test_join_chain_planning_under_budget(bench_data, guard, emit):
    catalog, _tables = bench_data
    ctx = WakeContext(catalog)
    best_ms = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        executor = ctx.executor_for(_join_chain(ctx, CHAIN_JOINS))
        best_ms = min(best_ms, (time.perf_counter() - start) * 1000.0)
        n_nodes = len(executor.graph.nodes)
        executor.close()
    emit(banner(
        f"E15 — build + executor_for of a {CHAIN_JOINS}-join chain "
        f"(best of {REPEATS})"
    ))
    emit(format_table(
        ["joins", "nodes", "rewrites", "plan ms"],
        [[CHAIN_JOINS, n_nodes, ctx.last_trace.total_rewrites, best_ms]],
    ))
    guard("planning_ms_join_chain16", best_ms, PLANNING_BUDGET_MS, op="<")

"""Experiment E15 — plan-rewrite engine cost and payoff.

The rule engine runs on every ``submit``, so it must be effectively free
next to execution, and the new logical rules must earn their keep where
their shapes occur.  Two guards:

* **planning latency** — materialize + full rule stack over all 22
  TPC-H plans; every plan must optimize in **< 5 ms** (best of three,
  the CI perf guard).  Rewriting is O(nodes × rules) per pass and TPC-H
  plans are tens of nodes, so there is plenty of headroom.
* **rewrite payoff** — a query with two separately-built (but
  identical) expensive filter→aggregate chains over one shared scan,
  with the costly string conjuncts written *before* the cheap sargable
  one.  Common-subplan elimination collapses the duplicated chain and
  combine-filters re-ranks the conjuncts; together they must deliver a
  **≥ 1.5×** end-to-end speedup over a context with only the logical
  rules disabled (scan pushdown stays on for both sides, so the guard
  isolates exactly what this PR's rules buy).
"""

import time

from conftest import BENCH_OVERRIDES

from repro import ExecutionOptions, WakeContext, col
from repro.api.functions import F
from repro.bench.report import banner, format_table
from repro.engine.graph import QueryGraph
from repro.engine.optimizer import LOGICAL_RULE_NAMES, build_optimizer
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
            optimizer = build_optimizer()
            start = time.perf_counter()
            graph, output, trace = optimizer.optimize(graph, output)
            best_ms = min(best_ms,
                          (time.perf_counter() - start) * 1000.0)
            n_nodes = len(graph.nodes)
            rewrites = trace.total_rewrites
        worst = max(worst, best_ms)
        rows.append([f"q{number}", n_nodes, rewrites, best_ms])
    emit(banner(
        "E15 — optimizer planning latency (22 TPC-H plans, "
        f"default rule stack, best of {REPEATS})"
    ))
    emit(format_table(
        ["query", "nodes (opt)", "rewrites", "plan ms"], rows,
    ))
    guard("planning_ms_worst_query", worst, PLANNING_BUDGET_MS, op="<")


def _duplicated_chain(ctx):
    """Two separately-built identical chains over one shared scan; the
    string conjuncts are written first so combine-filters has something
    to re-rank, and the chains are CSE's motivating shape."""
    t = ctx.table("lineitem")

    def chain():
        return (
            t.filter(col("l_comment").contains("a"))
            .filter(col("l_shipmode").contains("AIR"))
            .filter(col("l_quantity") < 40.0)
            .agg(F.sum("l_extendedprice").alias("revenue"),
                 F.stddev("l_extendedprice").alias("spread"),
                 F.sem("l_extendedprice").alias("sem"),
                 F.var("l_discount").alias("disc_var"),
                 F.avg("l_quantity").alias("mean_qty"),
                 F.count_distinct("l_suppkey").alias("n_supp"),
                 by=["l_returnflag"])
        )

    return chain().join(chain(), on=[("l_returnflag", "l_returnflag")])


def _run_wall_clock(catalog, logical: bool):
    disable = () if logical else set(LOGICAL_RULE_NAMES)
    ctx = WakeContext(catalog, options=ExecutionOptions(
        optimizer_disable=disable))
    start = time.perf_counter()
    edf = ctx.run(_duplicated_chain(ctx), capture_all=False)
    return time.perf_counter() - start, edf.get_final(), ctx.last_trace


def test_cse_and_reorder_speedup(bench_data, guard, emit):
    catalog, _tables = bench_data
    # Warm the page cache so both strategies read warm files.
    _run_wall_clock(catalog, logical=False)
    off_time, off_final, off_trace = _run_wall_clock(
        catalog, logical=False
    )
    on_time, on_final, on_trace = _run_wall_clock(catalog, logical=True)
    assert not set(off_trace.by_rule()) & set(LOGICAL_RULE_NAMES)
    fired = on_trace.by_rule()
    guard("common_subplan_rewrites", fired.get("common-subplan", 0), 2)
    guard("combine_filters_rewrites", fired.get("combine-filters", 0), 1)

    # Same answer both ways (each chain's column, same bytes).
    assert tuple(on_final.column_names) == tuple(off_final.column_names)
    for name in off_final.column_names:
        assert (on_final.column(name).tobytes()
                == off_final.column(name).tobytes()), name

    speedup = off_time / max(on_time, 1e-9)
    emit(banner(
        "E15 — CSE + filter-reorder payoff (duplicated chain over "
        "lineitem, logical rules on vs off)"
    ))
    emit(format_table(
        ["configuration", "wall s", "rewrites"],
        [
            ["logical rules off", off_time, off_trace.total_rewrites],
            ["logical rules on", on_time, on_trace.total_rewrites],
            ["speedup", speedup, ""],
        ],
    ))
    guard("cse_reorder_speedup", speedup, 1.5)

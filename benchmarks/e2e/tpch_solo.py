"""``tpch_solo``: all 22 TPC-H queries, one at a time (paper Fig 7).

Join and aggregate operators and the ``core`` state do most of the
work, the scan a third of it, the service none — the workload where an
operator or planner change must show and a wire change must not.
"""

from __future__ import annotations

from repro import WakeContext
from repro.baselines import ExactEngine
from repro.bench.workloads import METRIC_COLUMNS
from repro.tpch.queries import QUERIES

import layers
import solo
from harness import Config, Outcome
from tpch_data import bench_overrides, set_up

#: The five queries with the largest traced peaks at SF 0.1 (build
#: sides and subquery buffers: 15-70 MB against <= 10 MB for the rest);
#: all 22 under tracemalloc would add 8 s to the traced run.
PEAK_QUERIES = ("q02", "q10", "q13", "q17", "q20")


def run(cfg: Config) -> Outcome:
    data = set_up(cfg, WakeContext.from_catalog)
    ctx = data.system
    memory = ExactEngine(tables=data.tables, mode="memory")
    scan = ExactEngine(catalog=ctx.catalog, mode="scan")
    all_overrides = bench_overrides(cfg.preset.scale_factor)
    cases = []
    for number in sorted(QUERIES):
        query = QUERIES[number]
        overrides = all_overrides.get(number, {})
        keys, values = METRIC_COLUMNS[number]
        cases.append(solo.Case(
            name=query.name,
            build=lambda c, q=query, o=overrides: q.build_plan(c, **o),
            exact_memory=(lambda q=query, o=overrides:
                          memory.run(q, **o).frame),
            exact_scan=(lambda q=query, o=overrides:
                        scan.run(q, **o).frame),
            keys=keys, values=values,
            scored=query.category == "mape",
        ))
    workload = solo.Workload(
        ctx=ctx, cases=cases, capture_all=False,
        scan_every_round=False, warmup=cases,
        peak_cases=[c for c in cases if c.name in PEAK_QUERIES],
        setup_metrics=data.metrics,
    )
    if not cfg.trace:
        return solo.measure(workload, cfg)
    outcome = solo.trace(workload, cfg)
    outcome.metrics.update(layers.replay_q01_state(ctx.catalog))
    outcome.metrics.update(layers.dataframe_kernels(ctx.catalog))
    return outcome

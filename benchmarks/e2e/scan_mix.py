"""``scan_mix``: lineitem read four ways, each against a one-shot exact
scan (``TableMeta.read_all`` plus the same kernel):

* ``full16``   — ``sum(l_quantity)`` with pushdown off: all 16 columns
  of every partition decoded;
* ``proj1``    — the same plan with pushdown on: one column decoded;
* ``filter4``  — TPC-H q06: four columns and a row filter.  Its
  ``l_shipdate`` predicate prunes nothing, because lineitem is clustered
  on ``l_orderkey`` and ship dates are spread over every partition;
* ``pruned``   — q06's aggregate over the first quarter of the order
  keys: the zone maps skip three partitions in four.

Storage does nearly all the work and operators almost none, and the
write path sits beside the reads in ``setup_s`` /
``storage.bytes_on_disk``, so a format change that speeds wide reads
but costs writes, disk or pruned reads is visible here.
"""

from __future__ import annotations

import numpy as np

from repro import F, WakeContext
from repro.baselines import ExactEngine
from repro.bench.workloads import METRIC_COLUMNS
from repro.dataframe import AggSpec, col, global_aggregate
from repro.tpch.queries import QUERIES

import layers
import solo
from harness import Config, Outcome
from tpch_data import set_up

_SUM = AggSpec("sum", "l_quantity", "sum_qty")
_GAIN = col("l_extendedprice") * col("l_discount")


def _sum_quantity(ctx):
    return ctx.table("lineitem").agg(F.sum("l_quantity").alias("sum_qty"))


def run(cfg: Config) -> Outcome:
    data = set_up(cfg, WakeContext.from_catalog)
    ctx = data.system
    lineitem = ctx.catalog.table("lineitem")
    scan = ExactEngine(catalog=ctx.catalog, mode="scan")
    q06 = QUERIES[6]
    keys, values = METRIC_COLUMNS[6]
    cutoff = int(np.quantile(
        data.tables["lineitem"].column("l_orderkey"), 0.25))

    def exact_sum():
        return global_aggregate(lineitem.read_all(), [_SUM])

    def first_quarter(c):
        rows = c.table("lineitem").filter(col("l_orderkey") <= cutoff)
        return rows.select(gain=_GAIN).agg(F.sum("gain").alias("revenue"))

    def exact_first_quarter():
        table = lineitem.read_all()
        rows = table.mask(table.column("l_orderkey") <= cutoff)
        rows = rows.with_column("gain", _GAIN.evaluate(rows))
        return global_aggregate(rows, [AggSpec("sum", "gain", "revenue")])

    cases = [
        solo.Case(name="full16", build=_sum_quantity,
                  exact_scan=exact_sum, values=("sum_qty",),
                  executor_kwargs={"pushdown": False}),
        solo.Case(name="proj1", build=_sum_quantity,
                  exact_scan=exact_sum, values=("sum_qty",)),
        solo.Case(name="filter4", build=q06.build_plan,
                  exact_scan=lambda: scan.run(q06).frame,
                  keys=keys, values=values),
        solo.Case(name="pruned", build=first_quarter,
                  exact_scan=exact_first_quarter, values=("revenue",)),
    ]
    workload = solo.Workload(
        ctx=ctx, cases=cases, capture_all=False, scan_every_round=True,
        warmup=cases, peak_cases=cases, trace_reps=5,
        setup_metrics=data.metrics,
    )
    if not cfg.trace:
        return solo.measure(workload, cfg)
    outcome = solo.trace(workload, cfg)
    outcome.metrics["storage.raw_read_s"] = layers.raw_read_seconds(
        lineitem)
    return outcome

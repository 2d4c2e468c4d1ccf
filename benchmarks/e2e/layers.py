"""Direct calls into single layers, timed from outside.

These bypass the engine on purpose: they replay the inputs a query
feeds a layer (per-partition partials, join sides, partition files)
into that layer's public functions, so a change to one layer shows
here even when the operators around it hide it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.growth import GrowthModel
from repro.core.inference import AggregateInference
from repro.core.state import GroupedAggregateState
from repro.dataframe import AggSpec, DataFrame, group_aggregate
from repro.dataframe.join import JoinIndex
from repro.storage.catalog import Catalog, TableMeta

from harness import perf_counter

#: The level-1 aggregate of TPC-H q01 over raw lineitem columns.
Q01_KEYS = ("l_returnflag", "l_linestatus")
Q01_SPECS = (
    AggSpec("sum", "l_quantity", "sum_qty"),
    AggSpec("sum", "l_extendedprice", "sum_base_price"),
    AggSpec("avg", "l_quantity", "avg_qty"),
    AggSpec("avg", "l_extendedprice", "avg_price"),
    AggSpec("avg", "l_discount", "avg_disc"),
    AggSpec("count", None, "count_order"),
)
_Q01_COLUMNS = (*Q01_KEYS, "l_quantity", "l_extendedprice", "l_discount")
_ORDERS_COLUMNS = ("o_orderkey", "o_custkey", "o_orderdate",
                   "o_totalprice")


def replay_aggregate_state(
    partials: Iterable[DataFrame],
    total_rows: int,
    by: Sequence[str],
    specs: Sequence[AggSpec],
) -> dict[str, float]:
    """What a shuffle aggregate does per message, layer by layer:
    merge the partial (``consume_delta``), gather the intrinsic state
    (``state_frame``), scale it into an estimate (``infer``)."""
    state = GroupedAggregateState(by, specs)
    inference = AggregateInference(GrowthModel(prior_w=1.0))
    consume_s = read_s = infer_s = 0.0
    seen = 0
    for partial in partials:
        started = perf_counter()
        state.consume_delta(partial)
        consumed = perf_counter()
        state.state_frame()
        gathered = perf_counter()
        seen += partial.n_rows
        fraction = seen / total_rows
        inference.observe(state, fraction)
        inference.infer(state, fraction)
        inferred = perf_counter()
        consume_s += consumed - started
        read_s += gathered - consumed
        infer_s += inferred - gathered
    return {
        "core.state.consume_s": consume_s,
        "core.state.read_s": read_s,
        "core.state.groups": state.n_groups,
        "core.inference.infer_s": infer_s,
    }


def replay_q01_state(catalog: Catalog) -> dict[str, float]:
    lineitem = catalog.table("lineitem")
    partials = (frame for _i, frame in
                lineitem.iter_partitions(columns=_Q01_COLUMNS))
    return replay_aggregate_state(partials, lineitem.total_tuples,
                                  Q01_KEYS, Q01_SPECS)


def dataframe_kernels(catalog: Catalog) -> dict[str, float]:
    """The kernels Wake and the exact baselines share: one-shot
    ``group_aggregate`` per lineitem partition, and a ``JoinIndex``
    built on orders then probed by every lineitem partition."""
    orders = catalog.table("orders").read_all().select(_ORDERS_COLUMNS)
    started = perf_counter()
    index = JoinIndex(orders, ["o_orderkey"])
    build_s = perf_counter() - started
    probe_s = aggregate_s = 0.0
    columns = ("l_orderkey", *_Q01_COLUMNS)
    lineitem = catalog.table("lineitem")
    for _i, frame in lineitem.iter_partitions(columns=columns):
        started = perf_counter()
        index.probe(frame, ["l_orderkey"])
        probed = perf_counter()
        group_aggregate(frame, list(Q01_KEYS), list(Q01_SPECS))
        aggregated = perf_counter()
        probe_s += probed - started
        aggregate_s += aggregated - probed
    return {
        "dataframe.group_aggregate_s": aggregate_s,
        "dataframe.join_build_s": build_s,
        "dataframe.join_probe_s": probe_s,
    }


def raw_read_seconds(meta: TableMeta) -> float:
    """Every partition of a table decoded with no operator above it."""
    started = perf_counter()
    for index in range(meta.n_partitions):
        meta.read_partition(index)
    return perf_counter() - started

"""Experiment E14 — scan-layer pushdown (projection + zone-map pruning).

After PRs 1–3 made every operator incremental, the scan is the dominant
per-message cost: the seed ``ReadOperator`` decompressed **every column
of every partition** even for a Q6-style query touching 3 of 26 columns
behind a selective filter.  The pushdown layer
(``repro.engine.planner``'s ``projection_pass`` / ``pruning_pass``)
fixes both axes:

* **projection** — only downstream-referenced columns are loaded, so
  per-message scan cost is O(selected columns);
* **zone-map pruning** — partitions the sargable filter conjuncts can
  never match are skipped outright (their progress still advances via an
  empty partial, so snapshot cadence and growth inference are untouched).

Measurements:

* **per-message scan+filter** — a read→filter pipeline driven message by
  message over a wide clustered table, pushdown on vs off.  Acceptance
  bar: **≥ 3× lower median latency** (the CI perf guard).
* **end-to-end** — full sync runs of the same query.
* **parity** — finals byte-identical with pushdown on vs off.
"""

import time

import numpy as np
import pytest

from repro import ExecutionOptions, WakeContext
from repro.api.functions import F
from repro.bench.report import banner, format_table
from repro.dataframe import DataFrame, col
from repro.engine.ops import FilterOperator, ReadOperator
from repro.engine.planner import projection_pass, pruning_pass
from repro.engine.graph import QueryGraph
from repro.storage import Catalog, write_table

N_PARTITIONS = 32
ROWS_PER_PARTITION = 4_096
N_VALUE_COLUMNS = 24
#: The filter keeps ship values inside [SEL_LO, SEL_HI) — two partitions
#: of the clustered table; zone maps prune the other 30.
N_ROWS = N_PARTITIONS * ROWS_PER_PARTITION
SEL_LO = 4 * ROWS_PER_PARTITION
SEL_HI = 6 * ROWS_PER_PARTITION


@pytest.fixture(scope="module")
def wide_catalog(tmp_path_factory):
    """A wide fact table clustered on the filter column ``ship``."""
    directory = tmp_path_factory.mktemp("pushdown_bench")
    rng = np.random.default_rng(7)
    data = {"ship": np.arange(N_ROWS, dtype=np.int64)}
    for i in range(N_VALUE_COLUMNS):
        data[f"f{i:02d}"] = rng.normal(100.0, 15.0, size=N_ROWS)
    data["tag"] = np.array([f"tag{i % 13:02d}" for i in range(N_ROWS)])
    frame = DataFrame(data)
    catalog = Catalog(root=str(directory))
    write_table(
        catalog, directory, "wide", frame,
        rows_per_partition=ROWS_PER_PARTITION,
        primary_key=["ship"], clustering_key=["ship"],
    )
    return catalog


def _predicate():
    return col("ship").between(SEL_LO, SEL_HI)


def _plan(ctx):
    filtered = ctx.table("wide").filter(_predicate())
    enriched = filtered.select(gain=col("f01") * col("f02"))
    return enriched.agg(F.sum("gain").alias("revenue"))


def _scan_filter_times(catalog, pushed: bool) -> tuple[list[float], int]:
    """Per-message latency of the scan→filter front of the pipeline.

    The *full* Q6-style plan is materialized and (when ``pushed``) run
    through the planner's pushdown pass, so the scan carries exactly the
    projection (3 referenced columns) and sargable conjuncts a real run
    would — then only its read→filter front is driven, message by
    message.  The baseline reads every column of every partition.
    """
    ctx = WakeContext(catalog)
    graph = QueryGraph()
    output = _plan(ctx).plan.materialize(graph, {})
    if pushed:
        pruning_pass(graph, output)
        projection_pass(graph, output)
    graph.resolve()
    (read_id,) = graph.source_ids()
    read = graph.node(read_id).operator
    assert isinstance(read, ReadOperator)
    if pushed:
        assert read.columns == ("ship", "f01", "f02")
        assert read.predicates
    flt = next(
        graph.node(nid).operator
        for nid in sorted(graph.nodes)
        if isinstance(graph.node(nid).operator, FilterOperator)
    )
    times: list[float] = []
    rows = 0
    stream = read.stream()
    while True:
        # One "message" of work = producing the partition (the scan:
        # decompress + materialize, or a zone-map skip) + filtering it.
        start = time.perf_counter()
        try:
            message = next(stream)
        except StopIteration:
            break
        out = flt.on_message(0, message)
        times.append(time.perf_counter() - start)
        rows += sum(m.frame.n_rows for m in out)
    return times, rows


def _run_wall_clock(catalog, pushdown: bool) -> tuple[float, DataFrame]:
    ctx = WakeContext(catalog,
                      options=ExecutionOptions(pushdown=pushdown))
    start = time.perf_counter()
    edf = ctx.run(_plan(ctx), capture_all=False)
    return time.perf_counter() - start, edf.get_final()


def assert_byte_identical(got, expected, label):
    assert tuple(got.column_names) == tuple(expected.column_names)
    for name in expected.column_names:
        assert (got.column(name).tobytes()
                == expected.column(name).tobytes()), (
            f"column {name!r} drifted under {label}"
        )


def test_per_message_scan_filter_speedup(wide_catalog, guard, emit):
    """The headline guard: ≥ 3× lower median per-message scan+filter
    latency on a selective query over a wide clustered table."""
    # Warm the page cache so both strategies read warm files.
    baseline_times, baseline_rows = _scan_filter_times(
        wide_catalog, pushed=False
    )
    baseline_times, baseline_rows = _scan_filter_times(
        wide_catalog, pushed=False
    )
    pushed_times, pushed_rows = _scan_filter_times(
        wide_catalog, pushed=True
    )
    assert pushed_rows == baseline_rows

    def stats(samples):
        arr = np.array(samples) * 1000.0
        return [float(np.percentile(arr, 50)),
                float(np.percentile(arr, 90)),
                float(arr.sum())]

    base_p50, base_p90, base_total = stats(baseline_times)
    push_p50, push_p90, push_total = stats(pushed_times)
    median_speedup = base_p50 / max(push_p50, 1e-9)
    total_speedup = base_total / max(push_total, 1e-9)

    emit(banner(
        f"E14 — per-message scan+filter ({N_PARTITIONS} partitions x "
        f"{ROWS_PER_PARTITION} rows, {N_VALUE_COLUMNS + 2} columns, "
        f"filter keeps 2 partitions)"
    ))
    emit(format_table(
        ["strategy", "p50 ms", "p90 ms", "total ms"],
        [
            ["full scan", base_p50, base_p90, base_total],
            ["pushdown (3 cols + prune)", push_p50, push_p90,
             push_total],
            ["speedup", median_speedup, base_p90 / max(push_p90, 1e-9),
             total_speedup],
        ],
    ))
    guard("per_message_median_speedup", median_speedup, 3.0)
    guard("scan_filter_total_speedup", total_speedup, 3.0)


def test_end_to_end_and_parity(wide_catalog, guard, emit):
    """Full-query wall clock + byte-identical finals."""
    off_time, off_final = _run_wall_clock(wide_catalog, pushdown=False)
    on_time, on_final = _run_wall_clock(wide_catalog, pushdown=True)
    assert_byte_identical(on_final, off_final, "pushdown")

    emit(banner("E14 — end-to-end sync run (Q6-style over the wide table)"))
    emit(format_table(
        ["configuration", "wall s"],
        [
            ["pushdown off", off_time],
            ["pushdown on", on_time],
            ["speedup", off_time / max(on_time, 1e-9)],
        ],
    ))
    guard("end_to_end_speedup", off_time / max(on_time, 1e-9), 2.0)


def test_pruned_progress_matches_unpruned(wide_catalog, guard):
    """Snapshot progress sequences are identical under pruning — the
    growth-inference ``t`` never sees the skipped partitions."""
    on = WakeContext(wide_catalog)
    off = WakeContext(wide_catalog,
                      options=ExecutionOptions(pushdown=False))
    seq_on = on.run(_plan(on))
    seq_off = off.run(_plan(off))
    assert len(seq_on) == len(seq_off)
    for a, b in zip(seq_on.snapshots, seq_off.snapshots):
        assert dict(a.progress.done) == dict(b.progress.done)
        assert a.t == b.t
        assert_byte_identical(a.frame, b.frame, "pruned snapshot")
    guard("snapshot_sequence_identical", 1.0, 1.0, op="==")

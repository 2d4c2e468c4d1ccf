"""Experiment E11 — incremental join/aggregate state vs recompute.

The streamed-partition hot paths this repo's operators sit on
(arXiv:2303.04103 §7.2): per-message work must track *partition* size,
not total data consumed.  Five measurements:

* **probe stream** — a 64+-partition probe stream joined against one
  build side, comparing the prebuilt :class:`JoinIndex` probe path
  against the seed's one-shot ``hash_join`` (which re-factorizes and
  re-sorts the entire build side on every message).  Reports per-message
  latency percentiles; the acceptance bar is ≥ 5× lower median.
* **probe table** — q19's probe shape (a 20,000-row dense int-key build,
  32 probe partitions of 18,750 rows): ``probe_inner`` through the
  build's direct-address rank table against the same index with the
  table bound patched to 0 (the dictionary ``searchsorted`` path).
* **merge-join release** — the buffers one watermark release of
  ``MergeJoinOperator`` joins at lineitem ⋈ orders' shape (clustered,
  ascending keys): the ``merge_join`` kernel (binary search into the
  already-sorted right buffer) against ``hash_join`` (``np.unique``
  over both buffers, then a sort of the right codes) on the same
  frames; the acceptance bar is ≥ 2× lower median.
* **aggregate growth** — ``GroupedAggregateState.consume_delta`` cost as
  partials accumulate: the slot-based merge must stay flat (no scaling
  with previously-consumed partials), unlike concat + ``np.unique`` over
  all groups per message.
* **sink snapshot** — the executor-level effect: end-to-end per-snapshot
  cost with the part-concat cache.
"""

import time
from unittest import mock

import numpy as np
import pytest

from repro.core.state import GroupedAggregateState
from repro.dataframe import (
    AggSpec,
    DataFrame,
    JoinIndex,
    groupby,
    hash_join,
    merge_join,
)
from repro.bench.metrics import window_medians
from repro.bench.report import banner, format_table

N_PROBE = 256_000
N_PARTITIONS = 64
N_BUILD = 100_000


def percentiles(samples: list[float]) -> tuple[float, float, float]:
    arr = np.array(samples) * 1000.0  # ms
    return (float(np.percentile(arr, 50)), float(np.percentile(arr, 90)),
            float(np.percentile(arr, 99)))


@pytest.fixture(scope="module")
def probe_parts():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, N_BUILD * 2, size=N_PROBE).astype(np.int64)
    vals = rng.normal(100.0, 15.0, size=N_PROBE)
    frame = DataFrame({"k": keys, "v": vals})
    size = N_PROBE // N_PARTITIONS
    return [frame.slice(i * size, (i + 1) * size)
            for i in range(N_PARTITIONS)]


@pytest.fixture(scope="module")
def build():
    rng = np.random.default_rng(1)
    return DataFrame(
        {
            "k": rng.permutation(N_BUILD * 2)[:N_BUILD].astype(np.int64),
            "name": np.array([f"g{i}" for i in range(N_BUILD)]),
        }
    )


def test_probe_stream_vs_one_shot(probe_parts, build, benchmark, emit,
                                  guard):
    """Per-message probe latency: JoinIndex vs seed one-shot hash_join."""
    def run_indexed():
        index = JoinIndex(build, ["k"])
        times, rows = [], 0
        for part in probe_parts:
            start = time.perf_counter()
            out = index.probe_inner(part, ["k"])
            times.append(time.perf_counter() - start)
            rows += out.n_rows
        return times, rows

    def run_one_shot():
        times, rows = [], 0
        for part in probe_parts:
            start = time.perf_counter()
            out = hash_join(part, build, ["k"], ["k"])
            times.append(time.perf_counter() - start)
            rows += out.n_rows
        return times, rows

    indexed_times, indexed_rows = benchmark.pedantic(
        run_indexed, rounds=3, iterations=1
    )
    one_shot_times, one_shot_rows = run_one_shot()
    assert indexed_rows == one_shot_rows

    rows = []
    for label, times in (("JoinIndex probe", indexed_times),
                         ("one-shot hash_join", one_shot_times)):
        p50, p90, p99 = percentiles(times)
        rows.append([label, len(times), p50, p90, p99,
                     sum(times) * 1000.0])
    emit(banner(
        f"E11 — streamed probe ({N_PARTITIONS} partitions x "
        f"{N_PROBE // N_PARTITIONS} rows vs {N_BUILD}-row build side)"
    ))
    emit(format_table(
        ["strategy", "messages", "p50 ms", "p90 ms", "p99 ms",
         "total ms"],
        rows,
    ))
    speedup = (np.median(np.array(one_shot_times))
               / np.median(np.array(indexed_times)))
    emit(f"median per-message speedup: {speedup:.1f}x "
         f"(acceptance bar: >= 5x)")
    guard("probe_median_speedup", speedup, 5.0)


def test_probe_table_vs_search(benchmark, emit, guard):
    """Per-message probe latency at q19's shape: rank table vs search."""
    rng = np.random.default_rng(3)
    n_build, n_parts, part_rows = 20_000, 32, 18_750
    build = DataFrame({
        "k": rng.permutation(np.arange(1, n_build + 1, dtype=np.int64)),
        "p_brand": np.array([f"Brand#{i % 25}" for i in range(n_build)]),
        "p_size": rng.integers(1, 51, n_build).astype(np.int64),
    })
    parts = [
        DataFrame({
            "k": rng.integers(1, n_build + 1, part_rows).astype(np.int64),
            "l_quantity": rng.integers(1, 51, part_rows).astype(np.float64),
            "l_extendedprice": rng.normal(3e4, 1e4, part_rows),
        })
        for _ in range(n_parts)
    ]
    tabled = JoinIndex(build, ["k"])
    with mock.patch.object(groupby, "SLOT_TABLE_SIZE", 0):
        searched = JoinIndex(build, ["k"])
    assert tabled._table is not None and searched._table is None

    def stream(index):
        times, rows = [], 0
        for part in parts:
            start = time.perf_counter()
            out = index.probe_inner(part, ["k"])
            times.append(time.perf_counter() - start)
            rows += out.n_rows
        return times, rows

    table_times, table_rows = benchmark.pedantic(
        lambda: stream(tabled), rounds=3, iterations=1
    )
    search_times, search_rows = stream(searched)
    assert table_rows == search_rows

    rows = []
    for label, times in (("rank table", table_times),
                         ("dictionary search", search_times)):
        p50, p90, p99 = percentiles(times)
        rows.append([label, len(times), p50, p90, p99,
                     sum(times) * 1000.0])
    emit(banner(
        f"E11 — probe_inner at q19's shape ({n_parts} partitions x "
        f"{part_rows} rows vs {n_build}-row int-key build side)"
    ))
    emit(format_table(
        ["path", "messages", "p50 ms", "p90 ms", "p99 ms", "total ms"],
        rows,
    ))
    speedup = (np.median(np.array(search_times))
               / np.median(np.array(table_times)))
    emit(f"median per-message speedup: {speedup:.1f}x "
         f"(acceptance bar: >= 3x)")
    guard("probe_table_speedup", speedup, 3.0)


def test_merge_join_release_vs_hash_join(emit, guard):
    """Per-release join cost of the merge-join operator's buffers: the
    searchsorted kernel vs the shared-factorization hash kernel."""
    rng = np.random.default_rng(4)
    n_releases, orders_per_release = 32, 4_700
    releases = []
    for i in range(n_releases):
        okeys = (i * orders_per_release
                 + np.arange(orders_per_release, dtype=np.int64)) * 4
        per_order = rng.integers(1, 8, orders_per_release)
        lkeys = np.repeat(okeys, per_order)
        left = DataFrame({
            "l_orderkey": lkeys,
            "l_extendedprice": rng.normal(3e4, 1e4, len(lkeys)),
            "l_discount": rng.integers(0, 11, len(lkeys)) / 100.0,
        })
        right = DataFrame({
            "o_orderkey": okeys,
            "o_custkey": rng.integers(1, 15_000, orders_per_release),
            "o_orderdate": rng.integers(8_000, 10_500, orders_per_release),
        })
        releases.append((left, right))
    for left, right in releases[:2]:
        merged = merge_join(left, right, ["l_orderkey"], ["o_orderkey"])
        hashed = hash_join(left, right, ["l_orderkey"], ["o_orderkey"])
        for name in hashed.column_names:
            assert merged.column(name).tobytes() == \
                hashed.column(name).tobytes()

    def timed(kernel, left, right):
        start = time.perf_counter()
        kernel(left, right, ["l_orderkey"], ["o_orderkey"])
        return time.perf_counter() - start

    merge_passes, hash_passes = [], []
    for _ in range(3):  # interleaved; each release keeps its fastest
        merge_passes.append([])
        hash_passes.append([])
        for left, right in releases:
            merge_passes[-1].append(timed(merge_join, left, right))
            hash_passes[-1].append(timed(hash_join, left, right))
    merge_times = np.min(np.array(merge_passes), axis=0)
    hash_times = np.min(np.array(hash_passes), axis=0)
    rows = []
    for label, times in (("merge_join (searchsorted)", merge_times),
                         ("hash_join (shared codes)", hash_times)):
        p50, p90, p99 = percentiles(list(times))
        rows.append([label, len(times), p50, p90, p99])
    emit(banner(
        f"E11 — merge-join release ({n_releases} releases of "
        f"~{int(np.mean([l.n_rows for l, _ in releases]))} x "
        f"{orders_per_release} rows, ascending keys)"
    ))
    emit(format_table(["kernel", "releases", "p50 ms", "p90 ms",
                       "p99 ms"], rows))
    speedup = float(np.median(hash_times) / np.median(merge_times))
    emit(f"median per-release speedup: {speedup:.1f}x "
         f"(acceptance bar: >= 2x)")
    guard("merge_join_release_speedup", speedup, 2.0)


def test_aggregate_state_growth_flat(benchmark, emit, guard):
    """consume_delta latency must not grow with partials consumed."""
    rng = np.random.default_rng(2)
    n_rows, n_parts, n_groups = 512_000, 128, 20_000
    frame = DataFrame(
        {
            "k": rng.integers(0, n_groups, size=n_rows).astype(np.int64),
            "v": rng.normal(50.0, 10.0, size=n_rows),
        }
    )
    size = n_rows // n_parts
    parts = [frame.slice(i * size, (i + 1) * size) for i in range(n_parts)]

    passes = []

    def consume_all():
        state = GroupedAggregateState(
            by=("k",), specs=(AggSpec("sum", "v", "s"),
                              AggSpec("count", None, "n"))
        )
        times = []
        for part in parts:
            start = time.perf_counter()
            state.consume_delta(part)
            times.append(time.perf_counter() - start)
        assert state.n_groups == n_groups
        passes.append(times)

    benchmark.pedantic(consume_all, rounds=3, iterations=1)
    # After the dictionary warms up (~first quarter), per-message cost
    # must be flat: the last quarter no slower than 2x the second quarter.
    early, late = window_medians(*passes)
    emit(banner("E11 — aggregate consume_delta growth "
                f"({n_parts} partials, {n_groups} groups)"))
    emit(format_table(
        ["window", "median ms"],
        [["partials 32-64", early * 1000.0],
         ["partials 96-128", late * 1000.0],
         ["late/early ratio", late / early]],
    ))
    guard("consume_delta_late_early_ratio", late / early, 2.0, op="<=")

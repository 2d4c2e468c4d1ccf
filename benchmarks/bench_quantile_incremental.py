"""Experiment E12 — incremental order statistics vs full-history re-group.

PR 1 left one O(total-consumed) read path: ``sample_quantiles`` re-ran
``group_codes`` + ``group_quantile`` over the entire concatenated value
buffer on every snapshot, so median/quantile queries got slower per
message as the stream progressed.  Two measurements guard the rework:

* **flat latency** — per-message ``consume_delta`` + quantile-read cost
  over 128 partials must not grow with stream position (late/early
  median ratio <= 2), unlike the seed-style re-group whose per-read cost
  tracks total consumed rows.
* **byte-identical finals** — the incremental merged-run path must
  produce *bitwise* the same answers as a from-scratch
  ``group_aggregate`` over the full history (TPC-H lineitem), i.e. the
  exact-mode rework is a pure performance change (footnote-3 semantics
  preserved).
"""

import time

import numpy as np
import pytest

from repro.core.state import GroupedAggregateState
from repro.dataframe import AggSpec, DataFrame, group_aggregate
from repro.dataframe.groupby import group_codes, group_quantile
from repro.dataframe.join import inner_join_indices, shared_codes
from repro.bench.metrics import window_medians
from repro.bench.report import banner, format_table

N_PARTS = 128
ROWS_PER_PART = 4_000
N_GROUPS = 256
SPEC = AggSpec("median", "v", "med")


@pytest.fixture(scope="module")
def quantile_parts():
    rng = np.random.default_rng(0)
    n_rows = N_PARTS * ROWS_PER_PART
    frame = DataFrame(
        {
            "k": rng.integers(0, N_GROUPS, size=n_rows).astype(np.int64),
            "v": rng.normal(100.0, 25.0, size=n_rows),
        }
    )
    return [
        frame.slice(i * ROWS_PER_PART, (i + 1) * ROWS_PER_PART)
        for i in range(N_PARTS)
    ]


class SeedStyleQuantileReader:
    """The seed's read path: buffer raw parts, re-group + re-sort the
    entire history and join back on every snapshot read."""

    def __init__(self):
        self.state = GroupedAggregateState(by=("k",), specs=(SPEC,))
        self.parts: list[DataFrame] = []
        self._buffer: DataFrame | None = None

    def consume(self, part: DataFrame) -> None:
        self.state.consume_delta(part)
        self.parts.append(part.select(["k", "v"]))
        self._buffer = None

    def read(self) -> np.ndarray:
        if self._buffer is None:
            self._buffer = DataFrame.concat(self.parts)
            self.parts = [self._buffer]
        buffer = self._buffer
        state = self.state.state_frame()
        codes, keys, n_groups = group_codes(buffer, ["k"])
        quantiles = group_quantile(
            codes, n_groups, buffer.column("v"), 0.5
        )
        state_codes, key_codes = shared_codes(
            [state.column("k")], [keys.column("k")]
        )
        li, ri = inner_join_indices(state_codes, key_codes)
        out = np.full(state.n_rows, np.nan)
        out[li] = quantiles[ri]
        return out


def run_incremental(parts):
    state = GroupedAggregateState(by=("k",), specs=(SPEC,))
    times, answer = [], None
    for part in parts:
        start = time.perf_counter()
        state.consume_delta(part)
        answer = state.sample_quantiles(SPEC)
        times.append(time.perf_counter() - start)
    return times, answer


def run_seed_style(parts):
    reader = SeedStyleQuantileReader()
    times, answer = [], None
    for part in parts:
        start = time.perf_counter()
        reader.consume(part)
        answer = reader.read()
        times.append(time.perf_counter() - start)
    return times, answer


def test_quantile_latency_flat(quantile_parts, benchmark, emit, guard):
    """Per-message consume+read latency must not grow with history."""
    passes = []

    def timed_pass():
        times, answer = run_incremental(quantile_parts)
        passes.append(times)
        return answer

    inc_answer = benchmark.pedantic(timed_pass, rounds=3, iterations=1)
    seed_times, seed_answer = run_seed_style(quantile_parts)
    np.testing.assert_array_equal(inc_answer, seed_answer)

    inc_early, inc_late = window_medians(*passes)
    seed_early, seed_late = window_medians(seed_times)
    emit(banner(
        f"E12 — median-by-key consume+read per message "
        f"({N_PARTS} partials x {ROWS_PER_PART} rows, {N_GROUPS} groups)"
    ))
    emit(format_table(
        ["strategy", "partials 32-64 ms", "partials 96-128 ms",
         "late/early", "total ms"],
        [
            ["incremental merged runs", inc_early * 1e3, inc_late * 1e3,
             inc_late / inc_early, min(map(sum, passes)) * 1e3],
            ["seed re-group history", seed_early * 1e3, seed_late * 1e3,
             seed_late / seed_early, sum(seed_times) * 1e3],
        ],
    ))
    emit(f"late-window speedup vs seed path: "
         f"{seed_late / inc_late:.1f}x")
    guard("quantile_late_early_ratio", inc_late / inc_early, 2.0,
          op="<=")
    guard("quantile_late_speedup_vs_seed", seed_late / inc_late, 3.0)


def test_sketch_mode_bounds_memory(quantile_parts, guard, emit):
    """Opt-in sketch mode: bounded state, small quantile error."""
    exact = GroupedAggregateState(by=("k",), specs=(SPEC,))
    sketch = GroupedAggregateState(
        by=("k",), specs=(SPEC,), quantile_mode="sketch",
        sketch_size=256,
    )
    for part in quantile_parts:
        exact.consume_delta(part)
        sketch.consume_delta(part)
    e = exact.sample_quantiles(SPEC)
    s = sketch.sample_quantiles(SPEC)
    err = float(np.max(np.abs(e - s)))
    exact_bytes = exact._orderstats[SPEC.alias].nbytes()
    sketch_bytes = sketch._orderstats[SPEC.alias].nbytes()
    emit(banner("E12 — sketch mode memory bound"))
    emit(format_table(
        ["mode", "state bytes", "max |err| (values sigma=25)"],
        [["exact multiset", exact_bytes, 0.0],
         ["reservoir sketch (256)", sketch_bytes, err]],
    ))
    # reservoir matrix + its sorted read cache, vs the full multiset
    guard("sketch_vs_exact_bytes_ratio", sketch_bytes / exact_bytes,
          1.0 / 3.0, op="<")
    # ~se of a 256-sample median at sigma=25
    guard("sketch_quantile_abs_err", err, 10.0, op="<")


def test_tpch_quantile_finals_byte_identical(bench_ctx, bench_data, emit):
    """Engine finals through the incremental path must be *bitwise*
    equal to a one-shot group_aggregate over the full table."""
    _catalog, tables = bench_data
    lineitem = tables["lineitem"]
    specs = [
        AggSpec("median", "l_extendedprice", "med_price"),
        AggSpec("quantile", "l_extendedprice", "p90_price", param=0.9),
        AggSpec("quantile", "l_quantity", "p10_qty", param=0.1),
    ]
    plan = bench_ctx.table("lineitem").agg(
        *[_as_expr(s) for s in specs], by=["l_returnflag"],
    )
    final = plan.final()
    expected = group_aggregate(lineitem, ["l_returnflag"], specs)
    assert final.column("l_returnflag").tolist() == (
        expected.column("l_returnflag").tolist()
    )
    mismatches = [
        spec.alias
        for spec in specs
        if final.column(spec.alias).tobytes()
        != expected.column(spec.alias).tobytes()
    ]
    emit(banner("E12 — TPC-H lineitem quantile finals (byte comparison)"))
    emit(format_table(
        ["column", "byte-identical"],
        [[s.alias, s.alias not in mismatches] for s in specs],
    ))
    assert not mismatches, f"finals drifted: {mismatches}"


def _as_expr(spec: AggSpec):
    from repro.api.functions import AggExpr

    return AggExpr(spec.agg, spec.column, spec.alias, param=spec.param)

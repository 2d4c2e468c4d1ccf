"""Experiment E13 — flat-latency operator guards.

* **flat distinct latency** — per-message ``DistinctOperator`` cost over
  128 partials of mostly-new keys must not grow with stream position
  (late/early median <= 2), unlike the seed path that re-encoded the
  whole seen history through ``shared_codes`` per message.
* **flat top-k latency** — per-message ``SortLimitOperator`` cost with
  ``limit=k`` must track the partial, not the stream, unlike the seed
  path that re-concatenated and re-sorted the full history per message.
"""

import time

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.dataframe.join import anti_join_mask, shared_codes
from repro.dataframe.groupby import distinct_rows
from repro.dataframe.sort import sort_frame
from repro.core.properties import Delivery, Progress, StreamInfo
from repro.engine.message import Message
from repro.engine.ops import DistinctOperator, SortLimitOperator
from repro.bench.metrics import window_medians
from repro.bench.report import banner, format_table

N_PARTS = 128
ROWS_PER_PART = 2_000


# ---------------------------------------------------------------------------
# Flat-latency guards for the distinct / top-k rework
# ---------------------------------------------------------------------------

def _stream_message(frame, index, total_parts):
    done = (index + 1) * ROWS_PER_PART
    return Message(
        frame=frame,
        progress=Progress(done={"t": done},
                          total={"t": total_parts * ROWS_PER_PART}),
        kind=Delivery.DELTA,
    )


@pytest.fixture(scope="module")
def distinct_parts():
    rng = np.random.default_rng(5)
    n = N_PARTS * ROWS_PER_PART
    frame = DataFrame({
        # ~85% of keys are globally unique: the worst case for a
        # seen-set, since it grows by almost every message.
        "k": rng.permutation(
            np.concatenate([
                np.arange(int(n * 0.85), dtype=np.int64),
                rng.integers(0, 1_000, size=n - int(n * 0.85)),
            ])
        ),
        "v": rng.normal(size=n),
    })
    return [
        frame.slice(i * ROWS_PER_PART, (i + 1) * ROWS_PER_PART)
        for i in range(N_PARTS)
    ]


class SeedStyleDistinct:
    """The seed's path: re-encode the whole seen history per message."""

    def __init__(self, keys):
        self.keys = keys
        self.seen = None

    def consume(self, frame):
        fresh = distinct_rows(frame, self.keys)
        if self.seen is not None and fresh.n_rows:
            left, right = shared_codes(
                [fresh.column(k) for k in self.keys],
                [self.seen.column(k) for k in self.keys],
            )
            fresh = fresh.mask(anti_join_mask(left, right))
        if fresh.n_rows:
            keys = fresh.select(list(self.keys))
            self.seen = (keys if self.seen is None
                         else DataFrame.concat([self.seen, keys]))
        return fresh


def test_distinct_latency_flat(distinct_parts, emit, guard):
    op = DistinctOperator("d", subset=["k"])
    op.bind((StreamInfo(schema=distinct_parts[0].schema,
                        delivery=Delivery.DELTA),))
    inc_times, inc_rows = [], 0
    for i, part in enumerate(distinct_parts):
        start = time.perf_counter()
        out = op.on_message(0, _stream_message(part, i, N_PARTS))
        inc_times.append(time.perf_counter() - start)
        inc_rows += out[0].frame.n_rows

    seed = SeedStyleDistinct(("k",))
    seed_times, seed_rows = [], 0
    for part in distinct_parts:
        start = time.perf_counter()
        seed_rows += seed.consume(part).n_rows
        seed_times.append(time.perf_counter() - start)
    assert inc_rows == seed_rows

    inc_early, inc_late = window_medians(inc_times)
    seed_early, seed_late = window_medians(seed_times)
    emit(banner(
        f"E13 — incremental distinct per message ({N_PARTS} partials "
        f"x {ROWS_PER_PART} rows, ~85% unique keys)"
    ))
    emit(format_table(
        ["strategy", "partials 32-64 ms", "partials 96-128 ms",
         "late/early", "total ms"],
        [
            ["grouper seen-set", inc_early * 1e3, inc_late * 1e3,
             inc_late / inc_early, sum(inc_times) * 1e3],
            ["seed re-encode history", seed_early * 1e3,
             seed_late * 1e3, seed_late / seed_early,
             sum(seed_times) * 1e3],
        ],
    ))
    guard("distinct_late_early_ratio", inc_late / inc_early, 2.0,
          op="<=")
    guard("distinct_late_speedup_vs_seed", seed_late / inc_late, 2.0)


@pytest.fixture(scope="module")
def sort_parts():
    rng = np.random.default_rng(6)
    n = N_PARTS * ROWS_PER_PART
    frame = DataFrame({
        "v": rng.normal(size=n),
        "k": rng.integers(0, 10_000, size=n).astype(np.int64),
    })
    return [
        frame.slice(i * ROWS_PER_PART, (i + 1) * ROWS_PER_PART)
        for i in range(N_PARTS)
    ]


def test_topk_latency_flat(sort_parts, emit, guard):
    op = SortLimitOperator("t", by=["v"], ascending=False, limit=10)
    op.bind((StreamInfo(schema=sort_parts[0].schema,
                        delivery=Delivery.DELTA),))
    inc_times, answer = [], None
    for i, part in enumerate(sort_parts):
        start = time.perf_counter()
        answer = op.on_message(0, _stream_message(part, i, N_PARTS))
        inc_times.append(time.perf_counter() - start)

    seed_times, parts_so_far, seed_answer = [], [], None
    for part in sort_parts:
        start = time.perf_counter()
        parts_so_far.append(part)
        whole = DataFrame.concat(parts_so_far)
        seed_answer = sort_frame(whole, ["v"], False).head(10)
        seed_times.append(time.perf_counter() - start)
    assert answer is not None and seed_answer is not None
    assert answer[0].frame.equals(seed_answer, rtol=0, atol=0)

    inc_early, inc_late = window_medians(inc_times)
    seed_early, seed_late = window_medians(seed_times)
    emit(banner(
        f"E13 — top-10 sort/limit per message ({N_PARTS} partials x "
        f"{ROWS_PER_PART} rows)"
    ))
    emit(format_table(
        ["strategy", "partials 32-64 ms", "partials 96-128 ms",
         "late/early", "total ms"],
        [
            ["bounded top-k buffer", inc_early * 1e3, inc_late * 1e3,
             inc_late / inc_early, sum(inc_times) * 1e3],
            ["seed full re-sort", seed_early * 1e3, seed_late * 1e3,
             seed_late / seed_early, sum(seed_times) * 1e3],
        ],
    ))
    guard("topk_late_early_ratio", inc_late / inc_early, 2.0, op="<=")
    guard("topk_late_speedup_vs_seed", seed_late / inc_late, 3.0)

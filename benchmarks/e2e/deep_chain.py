"""``deep_chain``: the paper's §8.6 synthetic cascade of aggregates.

Every message refreshes every level: an O(groups) ``state_frame()``
gather, growth inference and a REPLACE re-emission per level, then a
sink snapshot.  Reads are a few percent of the wall clock, so this is
where a cheaper refresh or lazy snapshots must show — and where a
storage change must show nothing.
"""

from __future__ import annotations

import shutil

from repro import WakeContext
from repro.bench.workloads import (
    build_deep_query,
    deep_query_reference,
    generate_deep_dataset,
)
from repro.dataframe import AggSpec

import layers
import solo
from harness import Config, Outcome, median, perf_counter, tree_bytes

#: Depth whose level-1 partials are replayed into ``core.state``.
REPLAY_DEPTH = 6


def run(cfg: Config) -> Outcome:
    preset = cfg.preset
    totals: list[float] = []
    directory = None
    for rep in range(1 if cfg.trace else preset.setup_reps):
        if directory is not None:
            shutil.rmtree(directory)
        directory = cfg.workdir / f"deep{rep}"
        started = perf_counter()
        dataset = generate_deep_dataset(
            directory, n_rows=preset.deep_rows,
            n_partitions=preset.deep_partitions, seed=cfg.seed,
        )
        ctx = WakeContext(dataset.catalog)
        totals.append(perf_counter() - started)
    meta = dataset.catalog.table("deep")
    cases = []
    for depth in preset.deep_depths:
        alias = f"agg{depth + 1}" if depth else "agg0"
        cases.append(solo.Case(
            name=f"depth{depth}",
            build=lambda c, d=depth: build_deep_query(c, d),
            exact_memory=(lambda d=depth:
                          deep_query_reference(dataset.table, d)),
            exact_scan=(lambda d=depth:
                        deep_query_reference(meta.read_all(), d)),
            values=(alias,), scored=True,
        ))
    workload = solo.Workload(
        ctx=ctx, cases=cases, capture_all=True, scan_every_round=True,
        # The deepest chain is 80 % of a pass and warms nothing the
        # shallower ones do not; under tracemalloc it alone would take
        # longer than the rest of the traced run, so the peak is taken
        # one level up.
        warmup=cases[:-1], peak_cases=cases[-2:-1],
        # A pass takes ~14 s (depth 8 alone 8.5 s), so a run has one
        # round; the baselines and the first estimate are cheap enough
        # to sample two and five times in it.
        baseline_reps=2, first_only_reps=4,
        setup_metrics={
            # The synthetic table is generated and written in one call,
            # so its (small) generation cost stays inside set-up.
            "setup_s": median(totals),
            "storage.write_s": median(totals),
            "storage.bytes_on_disk": tree_bytes(directory),
        },
    )
    if not cfg.trace:
        return solo.measure(workload, cfg)
    outcome = solo.trace(workload, cfg)
    depth = min(REPLAY_DEPTH, max(preset.deep_depths))
    by = [f"c{i}" for i in range(1, depth + 1)]
    partials = (frame for _i, frame in
                meta.iter_partitions(columns=[*by, "x"]))
    outcome.metrics.update(layers.replay_aggregate_state(
        partials, meta.total_tuples, by, [AggSpec("max", "x", "agg1")]))
    return outcome

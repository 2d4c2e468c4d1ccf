"""What the benchmark runs and which metric belongs to which workload.

``BENCHMARK.json`` (repo root) is the single declaration of metric
names, units, directions and bounds; this module only adds what that
file's fixed key set cannot hold: the size presets and the table of
which workload *computes* which per-layer metric (every other
per-layer metric is printed as 0 for that workload, because the driver
wants every declared name on every run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: BLAS thread pins ``run.py`` applies before numpy is first imported.
THREAD_PINS = ("OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "OPENBLAS_NUM_THREADS")

SOLO = ("tpch_solo", "deep_chain", "scan_mix")
WORKLOADS = (*SOLO, "service_wire")

#: Operator kinds the TPC-H, deep-chain and scan plans instantiate at
#: parallelism 1 (the operator name up to ``#``/``(``); anything else
#: is folded into ``other`` so the per-kind sums still reconcile.
OP_KINDS = ("filter", "select", "project", "hash_join", "merge_join",
            "cross_join", "agg", "sort", "top_k", "distinct", "other")


@dataclass(frozen=True)
class Preset:
    """Input sizes.  ``full`` is what ``BENCHMARK.json`` measures (sized
    for the 2-cpu box); ``smoke`` exercises the same code in seconds for
    the tier-1 test."""

    name: str
    scale_factor: float
    fact_partitions: int
    dimension_partitions: int
    deep_rows: int
    deep_partitions: int
    deep_depths: tuple[int, ...]
    #: Fresh set-ups per run; ``setup_s`` is their median.
    setup_reps: int
    #: ``None`` = as many measured rounds as fit in ``--seconds``.
    max_rounds: int | None
    service_clients: int
    #: (query, params) pairs per client block; ``None`` = all 24.
    service_block: int | None
    #: Reconciliation / trace-overhead violations fail the run.  Off in
    #: smoke, where queries last milliseconds and the checks are noise.
    strict: bool


PRESETS = {
    "full": Preset(
        name="full", scale_factor=0.1, fact_partitions=32,
        dimension_partitions=2, deep_rows=1_000_000,
        deep_partitions=128, deep_depths=(0, 2, 4, 6, 8),
        setup_reps=3, max_rounds=None, service_clients=2,
        service_block=None, strict=True,
    ),
    "smoke": Preset(
        name="smoke", scale_factor=0.005, fact_partitions=4,
        dimension_partitions=2, deep_rows=20_000, deep_partitions=8,
        deep_depths=(0, 2, 4), setup_reps=1, max_rounds=1,
        service_clients=1, service_block=6, strict=False,
    ),
}

#: (metric-name prefix, workloads that compute it), first match wins.
_LAYER_WORKLOADS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("service.", ("service_wire",)),
    ("loadgen.decode_s", ("service_wire",)),
    ("obs.", ("service_wire",)),
    ("loadgen.gen_s", ("tpch_solo", "scan_mix", "service_wire")),
    ("storage.raw_read_s", ("scan_mix",)),
    ("storage.", WORKLOADS),
    ("api.", WORKLOADS),
    ("analysis.", WORKLOADS),
    ("engine.plan", WORKLOADS),
    ("engine.optimizer_rewrites", WORKLOADS),
    ("engine.op.", WORKLOADS),
    ("engine.", SOLO),
    ("core.", ("tpch_solo", "deep_chain")),
    ("quality.", ("tpch_solo", "deep_chain")),
    ("dataframe.", ("tpch_solo",)),
    ("baselines.exact_memory_s",
     ("tpch_solo", "deep_chain", "service_wire")),
    ("baselines.exact_scan_s", ("deep_chain", "scan_mix")),
)


def layer_applies(metric: str, workload: str) -> bool:
    """Whether ``workload`` computes per-layer ``metric``."""
    for prefix, workloads in _LAYER_WORKLOADS:
        if metric.startswith(prefix):
            return workload in workloads
    raise KeyError(f"per-layer metric {metric!r} has no workload mapping")


def load_declaration() -> dict:
    """``BENCHMARK.json`` parsed (names, units, bounds)."""
    return json.loads(BENCHMARK_JSON.read_text())

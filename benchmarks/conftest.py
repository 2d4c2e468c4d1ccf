"""Shared benchmark fixtures.

The bench dataset scale is controlled by ``REPRO_BENCH_SF`` (default
0.01 ≈ 60k lineitems) and ``REPRO_BENCH_PARTITIONS`` (default 16) so the
same harness scales from smoke runs to hour-long sweeps.

Every experiment prints the paper-style table through the ``emit``
fixture, which bypasses pytest's capture (so ``pytest benchmarks/
--benchmark-only 2>&1 | tee bench_output.txt`` records it) and also
persists per-experiment text under ``benchmarks/results/``.
"""

import os
from pathlib import Path

import pytest

from repro import WakeContext
from repro.bench.report import GuardLog
from repro.tpch import generate_and_load

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.02"))
BENCH_PARTITIONS = int(os.environ.get("REPRO_BENCH_PARTITIONS", "16"))
RESULTS_DIR = Path(__file__).parent / "results"
SUMMARY_PATH = RESULTS_DIR / "BENCH_summary.json"


@pytest.fixture(scope="session")
def bench_data(tmp_path_factory):
    """(catalog, tables) for the benchmark scale factor.

    ``REPRO_TPCH_CACHE_DIR`` (set by CI) reuses the partitioned dataset
    across runs instead of regenerating dbgen output every time.
    """
    cache_root = os.environ.get("REPRO_TPCH_CACHE_DIR")
    if cache_root:
        from repro.tpch import load_or_generate

        return load_or_generate(
            cache_root,
            scale_factor=BENCH_SF,
            seed=42,
            fact_partitions=BENCH_PARTITIONS,
            dimension_partitions=2,
        )
    directory = tmp_path_factory.mktemp("tpch_bench")
    catalog, tables = generate_and_load(
        directory,
        scale_factor=BENCH_SF,
        seed=42,
        fact_partitions=BENCH_PARTITIONS,
        dimension_partitions=2,
    )
    return catalog, tables


@pytest.fixture
def bench_ctx(bench_data):
    catalog, _tables = bench_data
    return WakeContext(catalog)


@pytest.fixture
def guard(request):
    """Assert a perf-guard threshold *and* record it in the trajectory.

    ``guard("speedup_median", speedup, 3.0)`` asserts ``speedup >= 3.0``
    (``op`` picks the comparison) and appends the measurement to
    ``benchmarks/results/BENCH_summary.json`` — recorded whether or not
    the assertion holds, so a regression still leaves its trace in the
    uploaded artifact.
    """
    log = GuardLog(SUMMARY_PATH)

    def _guard(metric: str, value: float, threshold: float,
               op: str = ">=") -> None:
        passed = log.record(
            benchmark=request.node.name,
            metric=metric,
            value=float(value),
            threshold=float(threshold),
            op=op,
        )
        assert passed, (
            f"perf guard failed: {metric} = {value:.4g} is not {op} "
            f"{threshold:.4g}"
        )

    return _guard


@pytest.fixture
def emit(capsys, request):
    """Print experiment output past pytest capture + save to results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{request.node.name}.txt"
    if path.exists():
        path.unlink()

    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text, flush=True)
        with open(path, "a") as handle:
            handle.write(text + "\n")

    return _emit


#: Parameter overrides keeping spec-shaped queries non-degenerate at
#: laptop scale factors.
#: q11's fraction is the spec's own ``0.0001 / SF``: a fixed 0.005
#: (its value at the default SF 0.02) selects no row at SF >= 0.1.
BENCH_OVERRIDES: dict[int, dict] = {
    11: {"fraction": 0.0001 / BENCH_SF},
    18: {"threshold": 200},
}

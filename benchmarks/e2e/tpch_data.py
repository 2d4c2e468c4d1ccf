"""Set-up shared by the three workloads that run on TPC-H data.

``setup_s`` is what a user pays before the first query: writing the
partitioned tables (zone maps included), saving the catalog and opening
the system on it — always a fresh write.  It is taken several times per
run and the median reported.  dbgen is the load generator's cost, not
the system's, and is reported apart as ``loadgen.gen_s``.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.storage import Catalog
from repro.tpch.dbgen import TpchTables, generate
from repro.tpch.loader import load_tables

from harness import Config, median, perf_counter, timed, tree_bytes


def bench_overrides(scale_factor: float) -> dict[int, dict]:
    """Parameter overrides keeping spec-shaped queries non-degenerate
    at small scale factors.  q18 is ``benchmarks/conftest.py``'s; q11
    takes the TPC-H spec's own ``0.0001 / SF`` because the guard
    suite's fixed 0.005 selects no row at all at SF 0.1."""
    return {
        11: {"fraction": 0.0001 / scale_factor},
        18: {"threshold": 200},
    }


@dataclass
class TpchData:
    tables: TpchTables
    catalog: Catalog
    directory: Path
    #: Whatever ``open_system`` returned for the last (kept) set-up.
    system: object
    metrics: dict[str, float]


def set_up(
    cfg: Config,
    open_system: Callable[[Path], object],
    close_system: Callable[[object], None] = lambda system: None,
) -> TpchData:
    """Generate the tables once, then set the system up
    ``preset.setup_reps`` times from scratch (once in a traced run,
    which does not report ``setup_s``); the last one is kept."""
    preset = cfg.preset
    reps = 1 if cfg.trace else preset.setup_reps
    tables, gen_s = timed(generate, preset.scale_factor, seed=cfg.seed)
    totals: list[float] = []
    writes: list[float] = []
    catalog = directory = system = None
    for rep in range(reps):
        if system is not None:
            close_system(system)
            system = None
            shutil.rmtree(directory)
        directory = cfg.workdir / f"catalog{rep}"
        started = perf_counter()
        catalog = load_tables(
            tables, directory,
            fact_partitions=preset.fact_partitions,
            dimension_partitions=preset.dimension_partitions,
        )
        written = perf_counter()
        catalog.save(directory / "catalog.json")
        system = open_system(directory / "catalog.json")
        totals.append(perf_counter() - started)
        writes.append(written - started)
    return TpchData(
        tables=tables, catalog=catalog, directory=directory,
        system=system,
        metrics={
            "setup_s": median(totals),
            "loadgen.gen_s": gen_s,
            "storage.write_s": median(writes),
            "storage.bytes_on_disk": tree_bytes(directory),
        },
    )

"""Exact all-at-once engines: the conventional-system analogues (§8.1).

The paper compares Wake against Postgres, Presto, Vertica, Polars, and
Actian Vector.  Those systems cannot be bundled here, so the reproduction
substitutes two flavours of an exact engine *running on the identical
DataFrame kernels as Wake*, so that ratios between the two isolate the
OLA-protocol overhead the paper measures — up to plan quality: the
reference plans are hand-written, not Wake's optimized graph (ROADMAP.md
item 5(a)):

* ``memory`` — tables fully resident before the query starts (the Polars
  analogue; excludes IO from the measured latency);
* ``scan``   — every partition is read from disk as part of the query
  (the warehouse analogue; includes IO, like Presto-on-HDFS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.storage.catalog import Catalog
from repro.tpch.dbgen import TpchTables

_MODES = ("memory", "scan")


@dataclass(frozen=True)
class ExactResult:
    """Outcome of one exact, all-at-once query execution."""

    frame: DataFrame
    wall_time: float
    rows_scanned: int
    peak_bytes: int


class ExactEngine:
    """Runs a query's reference implementation to completion, once."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        tables: TpchTables | None = None,
        mode: str = "memory",
    ) -> None:
        if mode not in _MODES:
            raise QueryError(f"unknown exact mode {mode!r}; use {_MODES}")
        if mode == "memory" and tables is None:
            raise QueryError("memory mode requires in-memory tables")
        if mode == "scan" and catalog is None:
            raise QueryError("scan mode requires a catalog")
        self.catalog = catalog
        self.tables = tables
        self.mode = mode

    def _load(self) -> "dict[str, DataFrame] | _LazyScan":
        if self.mode == "memory":
            assert self.tables is not None
            return dict(self.tables.tables)
        assert self.catalog is not None
        return _LazyScan(self.catalog)

    def run(self, query, track_memory: bool = False,
            **overrides) -> ExactResult:
        """Execute ``query`` (a :class:`repro.tpch.queries.QueryDef`) and
        time it end-to-end (including the scan in ``scan`` mode).

        ``track_memory`` enables tracemalloc peak tracking; it distorts
        wall time, so latency experiments leave it off.
        """
        import tracemalloc

        if track_memory:
            tracemalloc.start()
        started = time.perf_counter()
        loaded = self._load()
        params = {**query.defaults, **overrides}
        frame = query.reference(loaded, **params)
        elapsed = time.perf_counter() - started
        if isinstance(loaded, _LazyScan):
            rows = loaded.rows_scanned
        else:
            rows = sum(f.n_rows for f in loaded.values())
        peak = 0
        if track_memory:
            _current, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        return ExactResult(
            frame=frame,
            wall_time=elapsed,
            rows_scanned=rows,
            peak_bytes=peak,
        )


class _LazyScan(dict):
    """Table mapping that scans a table from disk on first access, so the
    scan engine only pays IO for the tables a query references."""

    def __init__(self, catalog: Catalog) -> None:
        super().__init__()
        self._catalog = catalog
        self.rows_scanned = 0

    def __missing__(self, name: str) -> DataFrame:
        frame = self._catalog.table(name).read_all()
        self[name] = frame
        self.rows_scanned += frame.n_rows
        return frame

"""ProgressiveDB-like OLA baseline (paper §8.1 baseline 1, Fig 9a).

ProgressiveDB is a middleware above PostgreSQL that rewrites a single-table
query into chunked "progressive view" queries and scales the partial
aggregates uniformly by the inverse of the processed fraction.  This
simulation preserves the algorithmic content while replacing the Postgres
substrate (the list below is the whole substitution):

* single table only, no joins, no nesting (the system's documented scope);
* chunked scan with a configurable chunk size;
* uniform 1/t scaling of sums/counts (no growth model, no clustering
  shortcuts, no per-group cardinality inference);
* a constant per-chunk ``middleware_overhead`` models the JDBC round trip
  and plan-rewrite cost of the real middleware (calibratable; the paper's
  relative results depend on its existence, not its exact value).

Supported aggregates: sum / count / avg, optionally grouped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.dataframe import AggSpec, DataFrame
from repro.dataframe.expr import Expr
from repro.dataframe.groupby import group_aggregate
from repro.storage.catalog import TableMeta

_SUPPORTED = ("sum", "count", "avg")


@dataclass(frozen=True)
class ProgressiveEstimate:
    """One refinement step of the progressive scan."""

    frame: DataFrame
    t: float
    wall_time: float
    rows_processed: int


@dataclass
class ProgressiveQuery:
    """A single-table aggregate query in ProgressiveDB's dialect."""

    table: str
    aggregates: Sequence[AggSpec]
    predicate: Expr | None = None
    by: Sequence[str] = ()
    derived: dict[str, Expr] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for spec in self.aggregates:
            if spec.agg not in _SUPPORTED:
                raise QueryError(
                    f"ProgressiveDB baseline supports {_SUPPORTED}, "
                    f"not {spec.agg!r}"
                )


class ProgressiveScan:
    """Chunked progressive execution of a :class:`ProgressiveQuery`."""

    def __init__(
        self,
        meta: TableMeta,
        chunk_rows: int = 2_000,
        middleware_overhead: float = 0.004,
    ) -> None:
        self.meta = meta
        self.chunk_rows = chunk_rows
        self.middleware_overhead = middleware_overhead

    def _chunks(self):
        for _index, frame in self.meta.iter_partitions():
            for start in range(0, frame.n_rows, self.chunk_rows):
                yield frame.slice(start, start + self.chunk_rows)

    def run(self, query: ProgressiveQuery) -> list[ProgressiveEstimate]:
        """Scan chunk by chunk, emitting uniformly-scaled estimates."""
        if query.table != self.meta.name:
            raise QueryError(
                f"query targets {query.table!r}, scan is over "
                f"{self.meta.name!r}"
            )
        total = self.meta.total_tuples
        estimates: list[ProgressiveEstimate] = []
        started = time.perf_counter()
        processed = 0
        acc: DataFrame | None = None
        raw_specs = _decompose(query.aggregates)
        for chunk in self._chunks():
            time.sleep(self.middleware_overhead)  # middleware round trip
            processed += chunk.n_rows
            if query.predicate is not None:
                chunk = chunk.mask(query.predicate.evaluate(chunk))
            for name, expr in query.derived.items():
                chunk = chunk.with_column(name, expr.evaluate(chunk))
            partial = _aggregate(chunk, query.by, raw_specs)
            acc = (
                partial if acc is None
                else _merge_frames(acc, partial, query.by, raw_specs)
            )
            t = processed / total
            estimates.append(
                ProgressiveEstimate(
                    frame=_finalize(acc, query, t),
                    t=t,
                    wall_time=time.perf_counter() - started,
                    rows_processed=processed,
                )
            )
        return estimates


def _decompose(specs: Sequence[AggSpec]) -> list[AggSpec]:
    """Mergeable raw parts: avg becomes (sum, count)."""
    raw: list[AggSpec] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.agg == "avg":
            parts = [
                AggSpec("sum", spec.column, f"__{spec.alias}__sum"),
                AggSpec("count", spec.column, f"__{spec.alias}__count"),
            ]
        else:
            parts = [AggSpec(spec.agg, spec.column,
                             f"__{spec.alias}__{spec.agg}")]
        for part in parts:
            if part.alias not in seen:
                seen.add(part.alias)
                raw.append(part)
    return raw


def _aggregate(chunk: DataFrame, by: Sequence[str],
               raw_specs: list[AggSpec]) -> DataFrame:
    if by:
        out = group_aggregate(chunk, list(by), raw_specs)
    else:
        from repro.dataframe.groupby import global_aggregate

        out = global_aggregate(chunk, raw_specs)
    # counts come back int64; merge paths need one uniform float layout
    for spec in raw_specs:
        out = out.with_column(
            spec.alias, out.column(spec.alias).astype(np.float64)
        )
    return out


def _merge_frames(acc: DataFrame, partial: DataFrame, by: Sequence[str],
                  raw_specs: list[AggSpec]) -> DataFrame:
    combined = DataFrame.concat([acc, partial])
    sum_specs = [AggSpec("sum", spec.alias, spec.alias)
                 for spec in raw_specs]
    if by:
        return group_aggregate(combined, list(by), sum_specs)
    from repro.dataframe.groupby import global_aggregate

    return global_aggregate(combined, sum_specs)


def _finalize(acc: DataFrame, query: ProgressiveQuery,
              t: float) -> DataFrame:
    """Uniform 1/t scaling of sums and counts; avg is the raw ratio."""
    scale = 1.0 / t if t < 1.0 else 1.0
    data = {k: acc.column(k) for k in query.by}
    for spec in query.aggregates:
        if spec.agg == "avg":
            total = acc.column(f"__{spec.alias}__sum")
            count = acc.column(f"__{spec.alias}__count")
            with np.errstate(invalid="ignore", divide="ignore"):
                values = np.where(count > 0, total / np.maximum(count, 1),
                                  np.nan)
        elif spec.agg == "sum":
            values = acc.column(f"__{spec.alias}__sum") * scale
        else:  # count
            values = acc.column(f"__{spec.alias}__count") * scale
        data[spec.alias] = values
    return DataFrame(data)

"""The 22 TPC-H queries, each as (a) a Wake dataflow plan over the fluent
API and (b) an exact reference implementation over the DataFrame kernels.

Every module ``qNN`` exposes::

    NAME        -- "qNN"
    CATEGORY    -- Fig-8 error-curve category:
                   "mape"   (non-clustered low-cardinality group-by),
                   "recall" (clustered group-by keys: exact values,
                             growing recall),
                   "mixed"  (both effects)
    DEFAULTS    -- query parameters (spec defaults; a few relaxed for
                   laptop-scale SFs, noted per query)
    build(ctx, **params)       -> EdfFrame (the Wake plan)
    reference(tables, **params) -> DataFrame (exact answer)

``QUERIES`` maps query number → :class:`QueryDef`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError


@dataclass(frozen=True)
class QueryDef:
    """Registry entry for one TPC-H query."""

    number: int
    name: str
    category: str
    defaults: dict
    build: Callable
    reference: Callable

    def _params(self, overrides: dict) -> dict:
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise QueryError(
                f"{self.name} has no parameter {', '.join(unknown)}; "
                f"valid parameters: {', '.join(sorted(self.defaults))}"
            )
        return {**self.defaults, **overrides}

    def run_reference(self, tables, **overrides):
        return self.reference(tables, **self._params(overrides))

    def build_plan(self, ctx, **overrides):
        return self.build(ctx, **self._params(overrides))


def _load() -> dict[int, QueryDef]:
    queries: dict[int, QueryDef] = {}
    for number in range(1, 23):
        module = importlib.import_module(
            f"repro.tpch.queries.q{number:02d}"
        )
        queries[number] = QueryDef(
            number=number,
            name=module.NAME,
            category=module.CATEGORY,
            defaults=dict(module.DEFAULTS),
            build=module.build,
            reference=module.reference,
        )
    return queries


QUERIES: dict[int, QueryDef] = _load()

__all__ = ["QUERIES", "QueryDef"]

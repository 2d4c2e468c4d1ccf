"""TPC-H Q6: revenue-change forecast (single-table global aggregate).

Category "mape".  One of the two queries supported by ProgressiveDB
(Fig 9a).
"""

from __future__ import annotations

from repro.dataframe import (
    AggSpec,
    add_years,
    col,
    date,
    global_aggregate,
)
from repro.api import F
from repro.tpch.queries._helpers import add, mask

NAME = "q06"
CATEGORY = "mape"
DEFAULTS = {"start": "1994-01-01", "years": 1, "discount": 0.06,
            "quantity": 24}


def _predicate(lo, hi, discount, quantity):
    return (
        col("l_shipdate").between(lo, hi)
        & (col("l_discount") >= discount - 0.01001)
        & (col("l_discount") <= discount + 0.01001)
        & (col("l_quantity") < quantity)
    )


def build(ctx, start, years, discount, quantity):
    lo = date(start)
    hi = add_years(lo, years)
    li = ctx.table("lineitem").filter(
        _predicate(lo, hi, discount, quantity)
    )
    enriched = li.select(gain=col("l_extendedprice") * col("l_discount"))
    return enriched.agg(F.sum("gain").alias("revenue"))


def reference(tables, start, years, discount, quantity):
    lo = date(start)
    hi = add_years(lo, years)
    li = mask(tables["lineitem"], _predicate(lo, hi, discount, quantity))
    li = add(li, "gain", col("l_extendedprice") * col("l_discount"))
    return global_aggregate(li, [AggSpec("sum", "gain", "revenue")])

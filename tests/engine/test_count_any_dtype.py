"""``count`` accepts a column of any dtype at plan time, so it must
count one at run time too.  Only a float column can hold NaN; a string,
int, bool or date column counts every row.  Each shape — grouped
(shuffle mode), global and local mode — is checked in-process and
through ``QueryService.submit``: every ``count(column)`` equals the
``count(*)`` beside it, and the row counts add up to the table's."""

import numpy as np
import pytest

from repro import F, WakeContext, col
from repro.service import QueryService

#: dtype → lineitem column (``flag`` is derived: TPC-H has no bool).
LINEITEM_COLUMNS = {"string": "l_shipmode", "int": "l_linenumber",
                    "date": "l_shipdate", "bool": "flag"}
ORDERS_COLUMNS = {"string": "o_orderstatus", "int": "o_custkey",
                  "date": "o_orderdate", "bool": "flag"}


def counts(frame, columns, by=()):
    return frame.agg(
        *(F.count(column).alias(dtype) for dtype, column in columns.items()),
        F.count().alias("rows"), by=by,
    )


PLANS = {
    "grouped": lambda ctx, **p: counts(
        ctx.table("lineitem").with_columns(flag=col("l_quantity") > 25.0),
        LINEITEM_COLUMNS, by=["l_returnflag"]),
    "global": lambda ctx, **p: counts(
        ctx.table("lineitem").with_columns(flag=col("l_quantity") > 25.0),
        LINEITEM_COLUMNS),
    "local": lambda ctx, **p: counts(
        ctx.table("orders").with_columns(flag=col("o_totalprice") > 1e5),
        ORDERS_COLUMNS, by=["o_orderkey"]),
}

TABLE = {"grouped": "lineitem", "global": "lineitem", "local": "orders"}


def check(final, shape, tables):
    rows = final.column("rows")
    assert rows.sum() == tables[TABLE[shape]].n_rows
    for dtype in LINEITEM_COLUMNS:
        np.testing.assert_array_equal(final.column(dtype), rows,
                                      err_msg=f"{shape} count({dtype})")


@pytest.mark.parametrize("shape", sorted(PLANS))
def test_count_of_any_dtype_counts_every_row(tpch, shape):
    catalog, tables = tpch
    ctx = WakeContext(catalog)
    edf = ctx.run(PLANS[shape](ctx))
    check(edf.get_final(), shape, tables)


def test_count_of_any_dtype_through_the_service(tpch):
    catalog, tables = tpch
    service = QueryService(WakeContext(catalog), plans=PLANS)
    sessions = {shape: service.submit(shape) for shape in PLANS}
    service.scheduler.run_until_idle()
    for shape, session in sessions.items():
        snapshots = list(iter(session.subscribe()))
        assert snapshots and snapshots[-1].is_final, session.state
        check(snapshots[-1].frame, shape, tables)

"""repro — a Python reproduction of "A Step Toward Deep Online Aggregation"
(Wake, SIGMOD 2023).

Quickstart::

    from repro import WakeContext, col, F

    ctx = WakeContext.from_catalog("path/to/catalog.json")
    lineitem = ctx.table("lineitem")
    order_qty = lineitem.agg(F.sum("l_quantity").alias("sum_qty"),
                             by=["l_orderkey"])
    lg_orders = order_qty.filter(col("sum_qty") > 300)
    for snapshot in ctx.run(lg_orders):
        print(snapshot.progress, snapshot.frame)

See README.md for the architecture overview and ROADMAP.md ("Performance
notes") for each module's per-message cost model.
"""

from repro.dataframe import (
    AggSpec,
    AttributeKind,
    DataFrame,
    DType,
    Field,
    Schema,
    col,
    date,
    date_str,
    lit,
    when,
)
from repro.errors import (
    ColumnNotFoundError,
    ExecutionError,
    InferenceError,
    QueryError,
    ReproError,
    SchemaError,
    ServiceError,
    StorageError,
)
from repro.api import EdfFrame, ExecutionOptions, F, WakeContext
from repro.core import CIConfig, EdfSnapshot, EvolvingDataFrame
from repro.storage import Catalog, TableMeta, write_table

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "AttributeKind",
    "CIConfig",
    "Catalog",
    "ColumnNotFoundError",
    "DType",
    "DataFrame",
    "EdfFrame",
    "EdfSnapshot",
    "EvolvingDataFrame",
    "ExecutionError",
    "ExecutionOptions",
    "F",
    "Field",
    "InferenceError",
    "QueryError",
    "ReproError",
    "Schema",
    "SchemaError",
    "ServiceError",
    "StorageError",
    "TableMeta",
    "WakeContext",
    "col",
    "date",
    "date_str",
    "lit",
    "when",
    "write_table",
]

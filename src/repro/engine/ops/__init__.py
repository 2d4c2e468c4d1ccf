"""Operator implementations (the node types of paper §7.1)."""

from repro.engine.ops.base import Operator, SourceOperator
from repro.engine.ops.read import ReadOperator
from repro.engine.ops.map import MapPartitionsOperator, SelectOperator
from repro.engine.ops.filter import FilterOperator
from repro.engine.ops.aggregate import AggregateOperator
from repro.engine.ops.join import (
    CrossJoinOperator,
    HashJoinOperator,
    MergeJoinOperator,
)
from repro.engine.ops.sort import SortLimitOperator
from repro.engine.ops.distinct import DistinctOperator

__all__ = [
    "AggregateOperator",
    "CrossJoinOperator",
    "DistinctOperator",
    "FilterOperator",
    "HashJoinOperator",
    "MapPartitionsOperator",
    "MergeJoinOperator",
    "Operator",
    "ReadOperator",
    "SelectOperator",
    "SortLimitOperator",
    "SourceOperator",
]

"""Fluent user API: WakeContext + EdfFrame + aggregate builders."""

from repro.api.context import WakeContext
from repro.api.frame_api import EdfFrame, PlanNode
from repro.api.functions import AggExpr, F
from repro.api.options import ExecutionOptions

__all__ = [
    "AggExpr",
    "EdfFrame",
    "ExecutionOptions",
    "F",
    "PlanNode",
    "WakeContext",
]

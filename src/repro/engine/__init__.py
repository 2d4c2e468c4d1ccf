"""Execution engine: query graph, message protocol, the executor, the
scan-pushdown optimizer, and canonical plan hashing (paper §7)."""

from repro.engine.executor import StepExecutor
from repro.engine.graph import Node, QueryGraph
from repro.engine.message import Eof, Message
from repro.engine.optimizer import OptimizerTrace, optimize
from repro.engine.plan_node import plan_hash

__all__ = [
    "Eof",
    "Message",
    "Node",
    "OptimizerTrace",
    "QueryGraph",
    "StepExecutor",
    "optimize",
    "plan_hash",
]

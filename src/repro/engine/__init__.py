"""Execution engine: query graph, message protocol, the executor, the
plan-rewrite optimizer, and canonical plan hashing (paper §7)."""

from repro.engine.executor import StepExecutor
from repro.engine.graph import Node, QueryGraph
from repro.engine.message import Eof, Message
from repro.engine.optimizer import (
    Optimizer,
    OptimizerTrace,
    RULE_NAMES,
    build_optimizer,
)
from repro.engine.plan_node import plan_hash

__all__ = [
    "Eof",
    "Message",
    "Node",
    "Optimizer",
    "OptimizerTrace",
    "QueryGraph",
    "RULE_NAMES",
    "StepExecutor",
    "build_optimizer",
    "plan_hash",
]

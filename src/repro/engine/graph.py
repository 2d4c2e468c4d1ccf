"""Query graph (paper §7.1 "Query Service").

Users (via the fluent API) build an execution graph of operator nodes and
data-flow edges.  Nodes are added bottom-up, so the graph is a DAG by
construction; ``resolve`` binds every operator in insertion order,
propagating :class:`StreamInfo` (schema, keys, clustering, delivery) along
the edges, and computes source drain priorities (hash-join build subtrees
are drained first, mirroring the paper's parallel hash-table construction
for right-deep join chains).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.core.properties import StreamInfo
from repro.engine.ops.base import Operator, SourceOperator


@dataclass
class Node:
    """One graph node: an operator plus its input node ids (by port)."""

    node_id: int
    operator: Operator
    inputs: tuple[int, ...] = ()


@dataclass
class QueryGraph:
    """A DAG of operator nodes."""

    nodes: dict[int, Node] = field(default_factory=dict)
    _next_id: int = 0
    _resolved: dict[int, StreamInfo] | None = None

    def add(self, operator: Operator, inputs: tuple[int, ...] = ()) -> int:
        """Register an operator; ``inputs`` are existing node ids in port
        order.  Returns the new node id."""
        if len(inputs) != operator.n_inputs:
            raise QueryError(
                f"operator {operator.name!r} needs {operator.n_inputs} "
                f"inputs, got {len(inputs)}"
            )
        for input_id in inputs:
            if input_id not in self.nodes:
                raise QueryError(
                    f"operator {operator.name!r}: input node {input_id} "
                    f"does not exist"
                )
        node_id = self._next_id
        self._next_id += 1
        self.nodes[node_id] = Node(node_id, operator, tuple(inputs))
        self._resolved = None
        return node_id

    # -- structure queries --------------------------------------------------------
    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise QueryError(f"no node with id {node_id}") from None

    def subscribers(self) -> dict[int, list[tuple[int, int]]]:
        """Map node id → [(consumer id, consumer port), ...] in id order."""
        out: dict[int, list[tuple[int, int]]] = {
            nid: [] for nid in self.nodes
        }
        for node in self.nodes.values():
            for port, src in enumerate(node.inputs):
                out[src].append((node.node_id, port))
        return out

    def source_ids(self) -> list[int]:
        return [
            nid
            for nid, node in sorted(self.nodes.items())
            if isinstance(node.operator, SourceOperator)
        ]

    def upstream_sources(self, node_id: int) -> set[int]:
        """All source node ids reachable upstream of ``node_id``
        (inclusive if it is itself a source)."""
        seen: set[int] = set()
        stack = [node_id]
        sources: set[int] = set()
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = self.nodes[nid]
            if isinstance(node.operator, SourceOperator):
                sources.add(nid)
            stack.extend(node.inputs)
        return sources

    # -- planning -----------------------------------------------------------------
    def resolve(
        self, infos: dict[int, StreamInfo] | None = None,
    ) -> dict[int, StreamInfo]:
        """Bind all operators (insertion order = topological order).

        ``infos`` is the plan's derivation
        (:func:`~repro.analysis.schema_check.infer_plan`): a node it
        covers binds from it without deriving again; any other node (a
        graph built by hand) derives on this first call."""
        if self._resolved is not None:
            return self._resolved
        derived = infos or {}
        resolved: dict[int, StreamInfo] = {}
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            input_infos = tuple(resolved[i] for i in node.inputs)
            resolved[nid] = node.operator.bind(input_infos,
                                               derived.get(nid))
        self._resolved = resolved
        return resolved

    def source_priorities(self) -> dict[int, int]:
        """0 = drain first (feeds a buffered build side), 1 = stream.

        Resolves first: which ports an operator buffers
        (``Operator.build_ports``) can depend on its bound inputs.
        """
        self.resolve()
        priorities = {nid: 1 for nid in self.source_ids()}
        for node in self.nodes.values():
            for port in node.operator.build_ports:
                for source in self.upstream_sources(node.inputs[port]):
                    priorities[source] = 0
        return priorities

    def validate_output(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise QueryError(f"output node {node_id} does not exist")

"""Plan rewriting: scan pushdowns and sharded data parallelism.

The pushdown passes run first (before any shard rewrite): they walk the
graph from the output back to the sources collecting, per
:class:`ReadOperator`, (1) the set of columns any downstream operator can
ever reference (each operator's own ``required_inputs``) — threaded into
the scan as a *projection* so npz partitions decompress only the needed
arrays (:func:`projection_pass`) — and (2) the sargable conjuncts of
downstream single-subscriber filters, evaluated against the catalog's
per-partition zone maps to *skip* partitions entirely
(:func:`pruning_pass`; see :mod:`repro.storage.zonemap`).  Both pushdowns
are semantically invisible: projection only removes columns nothing
reads, and a pruned partition still advances progress by its tuple count
via an empty partial, so snapshot cadence, growth-inference ``t``, and
exact finals are byte-identical to the unpushed plan.

``shard_plan`` rewrites an (already pushed-down)
:class:`QueryGraph` so that stateful shuffle subplans run as K parallel
replicas, each owning a disjoint hash range of the keys:

* A shuffle-mode grouped :class:`AggregateOperator` becomes K exchange
  ports on its group keys feeding K aggregate replicas, combined by a
  :class:`UnionOperator` that key-sorts the concatenated REPLACE
  snapshots.  Because a group's rows are masked — never re-batched — the
  per-shard accumulation sequence is bit-identical to the unsharded
  operator's, so exact final frames are byte-identical.
* When the aggregate's input chain (single-subscriber Filter/Select
  nodes) bottoms out at a single-subscriber :class:`HashJoinOperator`
  whose join keys align with the group keys (some ``left_on`` column is
  — possibly through bare-column renames — one of the group keys), the
  *whole* join→…→aggregate subplan is replicated instead: both join
  inputs are exchanged on the aligned key pair, so each replica joins
  and aggregates only its shard.  Rows with equal full join keys share
  the aligned sub-key, hence the shard, so inner/left/semi/anti match
  sets are preserved per shard.

The replicas are ordinary graph nodes stepped by the one
single-threaded executor: the rewrite changes the plan, not how it is
run.  ``parallelism <= 1`` returns the graph untouched — plans and
snapshot sequences stay byte-identical to the unsharded engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.schema_check import infer_plan
from repro.core.properties import Delivery
from repro.dataframe.expr import Column
from repro.engine.graph import QueryGraph
from repro.engine.ops import (
    AggregateOperator,
    ExchangeOperator,
    FilterOperator,
    HashJoinOperator,
    ReadOperator,
    SelectOperator,
    UnionOperator,
)
from repro.engine.ops.exchange import ShardHashCache
from repro.storage.zonemap import SargablePredicate


@dataclass(frozen=True)
class _ShardGroup:
    """One sharded subplan, headed by its aggregate node."""

    agg_id: int
    #: Chain node ids from the aggregate's input down toward the join.
    chain_ids: tuple[int, ...]
    #: The fused hash join, or None for an exchange directly on the
    #: aggregate input.
    join_id: int | None
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]


def _trace_chain(
    graph: QueryGraph, subs: dict[int, list[tuple[int, int]]], agg_id: int
) -> tuple[list[int], int, set[str]]:
    """Walk from the aggregate's input through single-subscriber
    Filter/Select nodes (row-local: their output for a masked message
    equals the mask of their output), tracking which base-side column each group key
    is a bare rename of.  Returns (chain ids top-down, base id, surviving
    key names at the base node's output)."""
    agg = graph.node(agg_id)
    names = set(agg.operator.by)
    chain: list[int] = []
    cur = agg.inputs[0]
    while True:
        node = graph.node(cur)
        op = node.operator
        if (not isinstance(op, (FilterOperator, SelectOperator))
                or len(subs[cur]) != 1):
            break
        if isinstance(op, SelectOperator):
            mapped: set[str] = set()
            for out_name, expr in op.exprs:
                if out_name in names and isinstance(expr, Column):
                    mapped.add(expr.name)
            names = mapped
        chain.append(cur)
        cur = node.inputs[0]
    return chain, cur, names


def _plan_groups(
    graph: QueryGraph, infos: dict,
    subs: dict[int, list[tuple[int, int]]],
) -> tuple[dict[int, _ShardGroup], set[int]]:
    """Pick the shardable subplans: shuffle-mode grouped aggregates, each
    optionally fused with the hash join feeding it."""
    groups: dict[int, _ShardGroup] = {}
    claimed: set[int] = set()
    for nid in sorted(infos):
        op = graph.node(nid).operator
        if not isinstance(op, AggregateOperator) or not op.by:
            continue
        if infos[nid].delivery == Delivery.DELTA:
            continue  # local mode: already partition-parallel
        chain, base_id, names = _trace_chain(graph, subs, nid)
        base_op = graph.node(base_id).operator
        group: _ShardGroup | None = None
        if (
            isinstance(base_op, HashJoinOperator)
            and len(subs[base_id]) == 1
            and base_id not in claimed
        ):
            pairs = [
                (left, right)
                for left, right in zip(base_op.left_on, base_op.right_on)
                if left in names
            ]
            if pairs:
                group = _ShardGroup(
                    agg_id=nid,
                    chain_ids=tuple(chain),
                    join_id=base_id,
                    left_keys=tuple(left for left, _ in pairs),
                    right_keys=tuple(right for _, right in pairs),
                )
                claimed.update(chain)
                claimed.add(base_id)
        if group is None:
            group = _ShardGroup(
                agg_id=nid, chain_ids=(), join_id=None,
                left_keys=op.by, right_keys=(),
            )
        groups[nid] = group
    return groups, claimed


def _add_exchange_fan(
    new: QueryGraph,
    keys: tuple[str, ...],
    src: int,
    parallelism: int,
    label: str,
) -> list[int]:
    """K sibling exchange ports over ``src``, sharing one hash cache."""
    cache = ShardHashCache(keys, parallelism)
    return [
        new.add(
            ExchangeOperator(
                f"exchange[s{shard}/{parallelism}]({label})",
                keys, shard, parallelism, cache=cache,
            ),
            (src,),
        )
        for shard in range(parallelism)
    ]


def _build_group(
    new: QueryGraph,
    graph: QueryGraph,
    infos: dict,
    group: _ShardGroup,
    mapping: dict[int, int],
    parallelism: int,
) -> int:
    agg_node = graph.node(group.agg_id)
    agg_op = agg_node.operator
    shard_tops: list[int] = []
    if group.join_id is None:
        src = mapping[agg_node.inputs[0]]
        ports = _add_exchange_fan(
            new, group.left_keys, src, parallelism, agg_op.name
        )
        for shard, port in enumerate(ports):
            tag = f"[s{shard}/{parallelism}]"
            shard_tops.append(new.add(agg_op.clone(tag), (port,)))
    else:
        join_node = graph.node(group.join_id)
        join_op = join_node.operator
        probe_ports = _add_exchange_fan(
            new, group.left_keys, mapping[join_node.inputs[0]],
            parallelism, f"{join_op.name}.probe",
        )
        build_ports = _add_exchange_fan(
            new, group.right_keys, mapping[join_node.inputs[1]],
            parallelism, f"{join_op.name}.build",
        )
        chain_ops = [
            graph.node(cid).operator for cid in reversed(group.chain_ids)
        ]
        for shard in range(parallelism):
            tag = f"[s{shard}/{parallelism}]"
            cur = new.add(
                join_op.clone(tag),
                (probe_ports[shard], build_ports[shard]),
            )
            for chain_op in chain_ops:
                cur = new.add(chain_op.clone(tag), (cur,))
            shard_tops.append(new.add(agg_op.clone(tag), (cur,)))
    return new.add(
        UnionOperator(
            f"union({agg_op.name})", len(shard_tops),
            sort_keys=agg_op.by, info=infos[group.agg_id],
        ),
        tuple(shard_tops),
    )


# -- scan pushdowns -----------------------------------------------------------

def _collect_scan_predicates(
    graph: QueryGraph,
    subs: dict[int, list[tuple[int, int]]],
    read_id: int,
) -> list[SargablePredicate]:
    """Sargable conjuncts guarding the scan at ``read_id``.

    Walks the *single-subscriber* chain above the scan through
    Filter/Select nodes.  Every row the scan emits flows through each
    collected filter before anything else observes it, so a partition no
    row of which can satisfy some conjunct contributes nothing
    downstream — skipping it is invisible (except progress, which the
    scan preserves).  Select nodes translate column names through bare
    renames; derived expressions end the translation for their columns.
    """
    read_op = graph.node(read_id).operator
    assert isinstance(read_op, ReadOperator)
    mapping = {name: name for name in read_op.meta.schema.names}
    predicates: list[SargablePredicate] = []
    cur = read_id
    while True:
        edges = subs.get(cur, [])
        if len(edges) != 1:
            break  # fan-out: another consumer sees unfiltered rows
        nxt, _port = edges[0]
        op = graph.node(nxt).operator
        if isinstance(op, FilterOperator):
            for pred in op.sargable():
                base = mapping.get(pred.column)
                if base is not None:
                    predicates.append(pred.renamed(base))
        elif isinstance(op, SelectOperator):
            mapping = {
                out: mapping[expr.name]
                for out, expr in op.exprs
                if isinstance(expr, Column) and expr.name in mapping
            }
            if not mapping:
                break
        else:
            break
        cur = nxt
    return predicates


def projection_pass(graph: QueryGraph, output: int) -> int:
    """Narrow each scan to the columns anything downstream can read.

    Mutates :class:`ReadOperator` instances in place (each execution
    materializes fresh operators, so no plan state leaks across runs);
    runs before anything binds the graph.  Returns the number of scans
    narrowed.
    """
    infos = infer_plan(graph, output)
    required: dict[int, set[str] | None] = {
        nid: set() for nid in graph.nodes
    }
    required[output] = None
    # Insertion order is topological, so a reverse sweep sees every
    # consumer before its producers.
    for nid in sorted(graph.nodes, reverse=True):
        node = graph.node(nid)
        if nid in infos:
            reqs = node.operator.required_inputs(
                tuple(infos[i].schema for i in node.inputs), required[nid]
            )
        else:
            # Not reachable from the output: demand unknown.
            reqs = [None] * len(node.inputs)
        for input_id, req in zip(node.inputs, reqs):
            if req is None:
                required[input_id] = None
            elif required[input_id] is not None:
                required[input_id] |= req

    narrowed = 0
    for nid in graph.source_ids():
        op = graph.node(nid).operator
        if not isinstance(op, ReadOperator):
            continue
        req = required[nid]
        names = set(op.meta.schema.names)
        if req is not None and (req & names) != names:
            wanted = req & names
            if not wanted:
                # Count-style queries reference no columns, but a
                # frame with zero columns has zero rows — keep the
                # cheapest single column to preserve row counts.
                wanted = {
                    op.meta.primary_key[0]
                    if op.meta.primary_key
                    else op.meta.schema.names[0]
                }
            op.set_columns(wanted)
            narrowed += 1
    return narrowed


def pruning_pass(graph: QueryGraph, output: int) -> int:
    """Thread sargable filter conjuncts into each scan for zone-map
    partition pruning.  Returns the number of scans that received
    predicates."""
    graph.validate_output(output)
    subs = graph.subscribers()
    pushed = 0
    for nid in graph.source_ids():
        op = graph.node(nid).operator
        if not isinstance(op, ReadOperator):
            continue
        predicates = _collect_scan_predicates(graph, subs, nid)
        if predicates:
            op.set_predicates(predicates)
            pushed += 1
    return pushed


def shard_plan(
    graph: QueryGraph, output: int, parallelism: int
) -> tuple[QueryGraph, int]:
    """Rewrite ``graph`` for K-way sharded execution.

    Returns ``(graph, output)`` unchanged when ``parallelism <= 1`` or
    nothing in the plan is shardable.
    """
    if parallelism <= 1:
        return graph, output
    infos = infer_plan(graph, output)
    subs = graph.subscribers()
    groups, claimed = _plan_groups(graph, infos, subs)
    if not groups:
        return graph, output
    new = QueryGraph()
    mapping: dict[int, int] = {}
    for nid in sorted(graph.nodes):
        if nid in claimed:
            continue  # rebuilt inside its group, reachable only from it
        node = graph.node(nid)
        group = groups.get(nid)
        if group is None:
            mapping[nid] = new.add(
                node.operator, tuple(mapping[i] for i in node.inputs)
            )
        else:
            mapping[nid] = _build_group(
                new, graph, infos, group, mapping, parallelism
            )
    return new, mapping[output]

"""Plan rewriting: scan pushdowns.

The pushdown passes walk the graph from the output back to the sources
collecting, per :class:`ReadOperator`, (1) the set of columns any
downstream operator can ever reference (each operator's own
``required_inputs``) — threaded into the scan as a *projection* so npz
partitions decompress only the needed arrays, after dropping the outputs
of a select whose sole consumer is an aggregate that does not read them
(:func:`projection_pass`) —
and (2) the sargable conjuncts of downstream single-subscriber filters,
evaluated against the catalog's per-partition zone maps to *skip*
partitions entirely (:func:`pruning_pass`; see
:mod:`repro.storage.zonemap`).  Both pushdowns are semantically
invisible: projection only removes columns nothing reads, and a pruned
partition still advances progress by its tuple count via an empty
partial, so snapshot cadence, growth-inference ``t``, and exact finals
are byte-identical to the unpushed plan.
"""

from __future__ import annotations

from repro.analysis.schema_check import infer_plan
from repro.dataframe.expr import Column
from repro.engine.graph import QueryGraph
from repro.engine.ops import (
    AggregateOperator,
    FilterOperator,
    ReadOperator,
    SelectOperator,
)
from repro.storage.zonemap import SargablePredicate


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

    A select whose sole consumer is an aggregate drops the outputs that
    aggregate does not read, so its own demand — and the scan below it —
    narrows too.  An aggregate passes no column through and decides
    ``local_mode`` by its group keys, which are kept, so its demand is
    exact.  ``propagate_ci`` selects keep all outputs: their sigma
    columns are not in ``exprs``.
    Mutates :class:`ReadOperator` and
    :class:`SelectOperator` instances in place (each execution
    materializes fresh operators, so no plan state leaks across runs);
    runs before anything binds the graph.  Returns the number of scans
    and selects narrowed.
    """
    infos = infer_plan(graph, output)
    required: dict[int, set[str] | None] = {
        nid: set() for nid in graph.nodes
    }
    required[output] = None
    subs = graph.subscribers()
    narrowed = 0
    # Insertion order is topological, so a reverse sweep sees every
    # consumer before its producers.
    for nid in sorted(graph.nodes, reverse=True):
        node = graph.node(nid)
        if nid in infos:
            op = node.operator
            if (isinstance(op, SelectOperator) and not op.propagate_ci
                    and len(subs[nid]) == 1
                    and isinstance(graph.node(subs[nid][0][0]).operator,
                                   AggregateOperator)):
                kept = [(n, e) for n, e in op.exprs if n in required[nid]]
                if len(kept) < len(op.exprs):
                    # A frame with zero columns has zero rows: keep one
                    # output to preserve row counts.
                    op.exprs = kept or op.exprs[:1]
                    narrowed += 1
            reqs = op.required_inputs(
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


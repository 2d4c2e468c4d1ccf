"""WakeContext: session entry point tying catalogs to the executor.

A context knows (1) where base tables live (a :class:`Catalog`), (2) the
session's :class:`ExecutionOptions`, and (3) whether confidence
intervals are propagated.  Frames built from a context are declarative
plans; every execution materializes a fresh operator graph and drives
it with a :class:`StepExecutor`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.analysis.schema_check import infer_plan
from repro.core.ci import CIConfig
from repro.core.properties import StreamInfo
from repro.core.edf import EvolvingDataFrame
from repro.engine.executor import StepExecutor
from repro.engine.graph import QueryGraph
from repro.engine.ops import ReadOperator
from repro.engine.optimizer import OptimizerTrace, optimize
from repro.obs import OperatorProfiler, maybe_span
from repro.storage.catalog import Catalog, TableMeta
from repro.api.frame_api import EdfFrame, PlanNode
from repro.api.options import ExecutionOptions


def _pull(executor: StepExecutor):
    """Step ``executor`` on demand, yielding snapshots as they appear;
    closes it when exhausted, closed or garbage-collected."""
    edf = executor.edf
    yielded = 0
    try:
        while executor.step():
            while yielded < len(edf):
                yield edf.snapshot(yielded)
                yielded += 1
    finally:
        executor.close()


class WakeContext:
    """A Deep OLA session (paper §7).

    Tuning knobs live in one validated
    :class:`~repro.api.options.ExecutionOptions` bundle: ``options=``
    here sets the session's, and ``options=`` on ``run`` / ``stream`` /
    ``explain`` / ``executor_for`` replaces it for one call.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        capture_all: bool = True,
        ci: CIConfig | None = None,
        partition_shuffle_seed: int | None = None,
        options: ExecutionOptions | None = None,
    ) -> None:
        #: Session execution options (see
        #: :class:`~repro.api.options.ExecutionOptions` for per-knob
        #: semantics).
        self.options = (options if options is not None
                        else ExecutionOptions())
        self.catalog = catalog or Catalog()
        self.capture_all = capture_all
        self.ci = ci
        #: When set, every table is read in a seed-derived shuffled
        #: partition order (the §8.5 out-of-order-input experiment).
        self.partition_shuffle_seed = partition_shuffle_seed
        #: Executor of the most recent ``run`` / ``stream``.
        self.last_executor: StepExecutor | None = None
        #: Trace of the most recent submit's optimization (pass → nodes
        #: rewritten, plan hash, the optimized plan's derivation).
        self.last_trace: OptimizerTrace | None = None
        #: Per-operator profile of the most recent
        #: ``explain(mode="profile")`` run.
        self.last_profile: OperatorProfiler | None = None

    @classmethod
    def from_catalog(cls, path: str | Path, **kwargs) -> "WakeContext":
        """Open a context over a saved catalog JSON file."""
        return cls(Catalog.load(path), **kwargs)

    # -- sources ------------------------------------------------------------------
    def table(
        self,
        name: str,
        order: Sequence[int] | None = None,
        source_name: str | None = None,
    ) -> EdfFrame:
        """An edf streaming a partitioned base table.

        ``order`` permutes partition read order (CI experiment §8.5).
        ``source_name`` labels the scan's progress counters; without
        one, a plan that reads the same table more than once (self-joins,
        subqueries) numbers its scans in creation order (see
        :meth:`PlanNode.materialize`).
        """
        meta: TableMeta = self.catalog.table(name)
        if order is None and self.partition_shuffle_seed is not None:
            rng = np.random.default_rng(
                self.partition_shuffle_seed
                + sum(ord(c) for c in name)
            )
            order = rng.permutation(meta.n_partitions).tolist()
        frozen_order = tuple(order) if order is not None else None

        def factory(_options: ExecutionOptions) -> ReadOperator:
            return ReadOperator(meta, order=frozen_order,
                                source_name=source_name)

        return EdfFrame(self, PlanNode(factory))

    # -- execution -----------------------------------------------------------------
    def _materialize(
        self,
        frame: EdfFrame,
        options: ExecutionOptions | None,
        trace=None,
    ) -> tuple[QueryGraph, int, OptimizerTrace]:
        """Instantiate the plan under ``options`` (``None``: the
        session's :attr:`options`), derive it once — the submit-time
        validation — and run the optimizer's scan pushdowns over it.
        Returns the graph, its output node and this plan's optimizer
        trace (also left in :attr:`last_trace`), whose ``infos`` is the
        derivation the graph binds from.  ``trace`` (a
        :class:`~repro.obs.SessionTrace`, or ``None``) records the
        validate/optimize phases as lifecycle spans."""
        opts = options if options is not None else self.options
        graph = QueryGraph()
        output = frame.plan.materialize(graph, {}, opts)
        # Submit-time chokepoint: run/stream/executor_for/explain (and
        # the service on top of them) all reject malformed plans here,
        # before any partition is read.
        with maybe_span(trace, "validate"):
            infos = infer_plan(graph, output)
        with maybe_span(trace, "optimize"):
            optimized = self.last_trace = optimize(graph, output, infos,
                                                   opts.pushdown)
        return graph, output, optimized

    def run(
        self,
        frame: EdfFrame,
        capture_all: bool | None = None,
        options: ExecutionOptions | None = None,
    ) -> EvolvingDataFrame:
        """Execute a plan, returning its evolving output.

        The returned :class:`EvolvingDataFrame` holds every intermediate
        snapshot (``capture_all=True``) or just the first estimate and the
        exact final answer (``capture_all=False``).  ``options``
        replaces the session's :class:`ExecutionOptions` for this run.
        """
        executor = self.last_executor = self.executor_for(
            frame, capture_all=capture_all, options=options,
        )
        return executor.run()

    def stream(
        self,
        frame: EdfFrame,
        options: ExecutionOptions | None = None,
    ):
        """Execute while *yielding* each snapshot as it is produced.

        This is the paper's downstream-application mode (§7.1: "the query
        output ... can be consumed by downstream applications (e.g.,
        progressive visualization)").  The plan is validated and
        optimized here; no partition is read before the first
        ``next()``.  Each pull steps the executor until a snapshot
        appears, so the sequence is exactly :meth:`run`'s and ends with
        the exact final snapshot.  Closing or abandoning the generator
        closes the executor and with it every open read stream.
        """
        executor = self.last_executor = self.executor_for(
            frame, capture_all=True, options=options,
        )
        return _pull(executor)

    def executor_for(
        self,
        frame: EdfFrame,
        capture_all: bool | None = None,
        pushdown: bool | None = None,
        options: ExecutionOptions | None = None,
        trace=None,
    ) -> StepExecutor:
        """A resumable :class:`StepExecutor` over the materialized plan
        (after the optimizer's pushdowns) — what :meth:`run` and
        :meth:`stream` drive and the unit the multi-query service
        schedules (see :mod:`repro.service`).  Each ``step()`` consumes
        one source partition; stepping to completion yields snapshot
        sequences byte-identical to :meth:`run`.  ``trace`` (a
        :class:`~repro.obs.SessionTrace`) records the validate/optimize
        lifecycle spans when the service has telemetry enabled.

        ``pushdown`` overrides the scan-pushdown setting of ``options``
        for this call.  It is kept only because the frozen end-to-end
        benchmark passes it (ROADMAP item 6(a) removes it); everything
        else goes through ``options=``."""
        if pushdown is not None:
            base = options if options is not None else self.options
            options = base.merged(pushdown=pushdown)
        graph, output, optimized = self._materialize(frame, options,
                                                     trace=trace)
        graph.resolve(optimized.infos)
        capture = self.capture_all if capture_all is None else capture_all
        executor = StepExecutor(graph, output, capture_all=capture)
        executor.plan_hash = optimized.plan_hash
        return executor

    def explain(self, frame: EdfFrame,
                options: ExecutionOptions | None = None,
                mode: str = "plan") -> str:
        """Human-readable plan: node names, deliveries, schemas (after
        the optimizer has run), followed by the optimizer trace — the
        canonical plan hash and pass name → nodes rewritten.

        Scan nodes additionally render their pushed-down projection
        (``columns=[...]``), pushed predicates, and how many partitions
        the zone maps prune (``prune=k/n``).

        ``mode="types"`` renders each node's derived schema (column →
        dtype, ``*`` marking mutable attributes) without binding or
        executing anything — the plan-debugging view of the operators'
        own ``_derive_info``.

        ``mode="profile"`` *executes* the plan to completion on a
        step executor with an :class:`~repro.obs.OperatorProfiler`
        attached and renders the per-operator time/rows breakdown
        (also retained on :attr:`last_profile`)."""
        if mode not in ("plan", "types", "profile"):
            raise QueryError(
                f"unknown explain mode {mode!r}; expected 'plan', "
                f"'types', or 'profile'"
            )
        if mode == "profile":
            executor = self.executor_for(
                frame, capture_all=False, options=options,
            )
            executor.profiler = self.last_profile = OperatorProfiler()
            executor.run()
            return self.last_profile.render()
        graph, output, optimized = self._materialize(frame, options)
        if mode == "types":
            return self._explain_types(graph, output, optimized.infos)
        infos = graph.resolve(optimized.infos)
        lines = []
        for nid in sorted(graph.nodes):
            node = graph.node(nid)
            info = infos[nid]
            marker = " <- output" if nid == output else ""
            inputs = (
                f" inputs={list(node.inputs)}" if node.inputs else ""
            )
            lines.append(
                f"[{nid}] {node.operator.name} "
                f"delivery={info.delivery.value} "
                f"cluster={list(info.clustering_key)}"
                f"{inputs}{marker}\n"
                f"      {info.schema!r}"
            )
            scan = node.operator
            if isinstance(scan, ReadOperator):
                details = []
                if scan.columns is not None:
                    details.append(f"columns={list(scan.columns)}")
                if scan.predicates:
                    preds = " AND ".join(map(repr, scan.predicates))
                    skipped = len(scan.pruned_partitions())
                    total = scan.meta.n_partitions
                    stats_note = (
                        "" if scan.meta.stats is not None
                        else " (no stats: pruning disabled)"
                    )
                    details.append(
                        f"pushed=[{preds}] "
                        f"prune={skipped}/{total}{stats_note}"
                    )
                if details:
                    lines.append("      scan " + " ".join(details))
        lines.extend(optimized.render())
        return "\n".join(lines)

    def _explain_types(self, graph: QueryGraph, output: int,
                       streams: dict[int, StreamInfo]) -> str:
        """Render each node's derived output schema (``explain``'s
        ``types`` mode) without resolving/binding the graph."""
        lines = []
        for nid in sorted(streams):
            node = graph.node(nid)
            stream = streams[nid]
            marker = " <- output" if nid == output else ""
            inputs = (
                f" inputs={list(node.inputs)}" if node.inputs else ""
            )
            cols = ", ".join(
                f"{f.name}: {f.dtype.value}"
                + ("*" if f.kind.value == "mutable" else "")
                for f in stream.schema.fields
            )
            cluster = (
                f" cluster={list(stream.clustering_key)}"
                if stream.clustering_key else ""
            )
            lines.append(
                f"[{nid}] {node.operator.name} "
                f"delivery={stream.delivery.value}{cluster}"
                f"{inputs}{marker}\n"
                f"      {cols}"
            )
        return "\n".join(lines)

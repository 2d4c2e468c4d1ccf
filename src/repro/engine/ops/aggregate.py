"""Aggregate operator with growth-based inference (paper §4–§5).

Two execution modes, chosen at plan time from the input's StreamInfo:

* **local** (Case 1, §2.2): the grouping keys contain the input's
  clustering key, so clusters never straddle partials — each DELTA partial
  aggregates independently into *exact, immutable* output rows, emitted as
  DELTA.  This is the paper's ``lineitem.sum(qty, by=orderkey)`` path and
  the reason deep pipelines like TPC-H Q18 stream end-to-end (Fig 6).

* **shuffle** (Case 2, §2.2): grouping keys are not aligned with the
  physical clustering.  The operator maintains mergeable intrinsic states
  (versions × partials, §4.2) and emits REPLACE snapshots of *scaled
  estimates* produced by growth-based inference (§5); output aggregate
  attributes are mutable.

A REPLACE input always forces shuffle mode with a new version per message
— the deep-aggregation path measured in §8.6.  Only the accumulators are
recomputed per snapshot; the state keeps group identity across versions
(see :mod:`repro.core.state`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import QueryError
from repro.dataframe.frame import DataFrame
from repro.dataframe.groupby import AggSpec, group_aggregate
from repro.dataframe.schema import AttributeKind, DType, Field, Schema
from repro.core.ci import CIConfig, sigma_column
from repro.core.growth import GrowthModel
from repro.core.inference import AggregateInference
from repro.core.mergeable import AGGREGATES
from repro.core.orderstat import DEFAULT_SKETCH_SIZE, QUANTILE_MODES
from repro.core.properties import Delivery, StreamInfo
from repro.core.state import GroupedAggregateState
from repro.engine.message import Message
from repro.engine.ops.base import Operator

#: Aggregates whose input may be any dtype (they only count rows/values).
_ANY_DTYPE_AGGS = ("count", "count_distinct")


class AggregateOperator(Operator):
    """Group-by (or global) aggregation over an edf stream."""

    #: Growth-scaling strategies (the §5.2 ablation knob):
    #: ``fitted``  — the paper's streaming log-log fit of w (default);
    #: ``uniform`` — classic OLA 1/t scaling (pin w = 1);
    #: ``none``    — raw merged values, no scaling (pin w = 0).
    GROWTH_MODES = ("fitted", "uniform", "none")

    def __init__(
        self,
        name: str,
        specs: Sequence[AggSpec],
        by: Sequence[str] = (),
        ci: CIConfig | None = None,
        growth_mode: str = "fitted",
        quantile_mode: str = "exact",
        sketch_size: int = DEFAULT_SKETCH_SIZE,
    ) -> None:
        super().__init__(name)
        if not specs:
            raise QueryError(f"aggregate {self.name!r} needs >= 1 AggSpec")
        if growth_mode not in self.GROWTH_MODES:
            raise QueryError(
                f"aggregate {self.name!r}: unknown growth_mode "
                f"{growth_mode!r}; expected one of {self.GROWTH_MODES}"
            )
        if quantile_mode not in QUANTILE_MODES:
            raise QueryError(
                f"aggregate {self.name!r}: unknown quantile_mode "
                f"{quantile_mode!r}; expected one of {QUANTILE_MODES}"
            )
        if sketch_size < 2:
            raise QueryError(
                f"aggregate {self.name!r}: sketch_size must be >= 2, "
                f"got {sketch_size}"
            )
        self.specs = tuple(specs)
        self.by = tuple(by)
        self.ci = ci
        self.growth_mode = growth_mode
        self.quantile_mode = quantile_mode
        self.sketch_size = sketch_size
        self.local_mode = False
        self._state: GroupedAggregateState | None = None
        self._inference: AggregateInference | None = None
        self._emitted_final = False
        self._has_emitted = False
        self._last_schema: Schema | None = None

    # -- plan time ---------------------------------------------------------------
    def _derive_info(self, inputs: tuple[StreamInfo, ...]) -> StreamInfo:
        (info,) = inputs
        schema: Schema = info.schema
        for key in self.by:
            if key not in schema:
                raise self.fail(
                    "undefined-column",
                    f"unknown group key {key!r}; available: "
                    f"{list(schema.names)}",
                    column=key,
                )
            if schema.kind(key) == AttributeKind.MUTABLE:
                raise self.fail(
                    "delivery-misuse",
                    f"cannot group by mutable attribute {key!r} "
                    f"(grouping by a refining aggregate is the paper's "
                    f"§3.3 blocking case)",
                    column=key,
                )
        for spec in self.specs:
            if spec.column is None:
                continue
            if spec.column not in schema:
                raise self.fail(
                    "undefined-column",
                    f"unknown column {spec.column!r} in {spec.agg}",
                    column=spec.column,
                )
            if (spec.agg not in _ANY_DTYPE_AGGS
                    and schema.dtype(spec.column) is DType.STRING):
                raise self.fail(
                    "non-numeric-agg",
                    f"{spec.agg}({spec.column!r}) aggregates a string "
                    f"column; only {_ANY_DTYPE_AGGS} accept non-numeric "
                    f"input",
                    column=spec.column,
                )

        # Local mode (see the module docstring): clusters never straddle
        # partials, so outputs are exact, constant and stay DELTA.
        local_mode = (
            info.delivery == Delivery.DELTA
            and bool(self.by)
            and info.clustered_on(self.by)
        )
        fields = [schema.field(k).as_constant() for k in self.by]
        out_kind = (
            AttributeKind.CONSTANT if local_mode
            else AttributeKind.MUTABLE
        )
        for spec in self.specs:
            # Every estimate (and every local-mode exact value) is float64.
            fields.append(Field(spec.alias, DType.FLOAT64, out_kind))
            if self.ci is not None and not local_mode:
                fields.append(
                    Field(sigma_column(spec.alias), DType.FLOAT64,
                          AttributeKind.MUTABLE)
                )
        return StreamInfo(
            schema=self._schema(fields),
            primary_key=self.by,
            clustering_key=info.clustering_key if local_mode else (),
            delivery=Delivery.DELTA if local_mode else Delivery.REPLACE,
        )

    def _on_bound(self) -> None:
        self.local_mode = self.output_info.delivery == Delivery.DELTA
        if self.local_mode:
            return
        # shuffle mode: configure intrinsic state + inference
        self._state = GroupedAggregateState(
            self.by, self.specs, track_moments=self.ci is not None,
            quantile_mode=self.quantile_mode,
            sketch_size=self.sketch_size,
        )
        if self.growth_mode == "uniform":
            growth = GrowthModel.pinned(1.0)
        elif self.growth_mode == "none":
            growth = GrowthModel.pinned(0.0)
        elif self.input_infos[0].delivery == Delivery.REPLACE:
            growth = GrowthModel(prior_w=0.0)
        else:
            growth = GrowthModel(prior_w=1.0)
        self._inference = AggregateInference(growth, ci=self.ci)

    def required_inputs(self, input_schemas, required):
        needed = set(self.by)
        for spec in self.specs:
            if spec.column is not None:
                needed.add(spec.column)
        return [needed]

    def reads_versions(self, port: int, wanted: bool) -> bool:
        # A REPLACE input restarts the accumulators per version, so an
        # unread output version needs no input version — except for a
        # sketch quantile, whose reservoir RNG runs across versions.
        sketch = self.quantile_mode == "sketch" and any(
            AGGREGATES[spec.agg].order_stats for spec in self.specs
        )
        if (self.local_mode or sketch
                or self.input_infos[0].delivery != Delivery.REPLACE):
            return True
        return wanted

    def signature(self) -> tuple:
        specs = tuple(
            (s.agg, s.column, s.alias, s.param) for s in self.specs
        )
        ci = repr(self.ci) if self.ci is not None else None
        return (specs, self.by, ci, self.growth_mode, self.quantile_mode,
                self.sketch_size)

    # -- run time -----------------------------------------------------------------
    def _handle_message(self, port: int, message: Message) -> list[Message]:
        if self.local_mode:
            return self._handle_local(message)
        assert self._state is not None and self._inference is not None
        if message.kind == Delivery.REPLACE:
            self._state.consume_snapshot(message.frame)
        else:
            self._state.consume_delta(message.frame)
        t = self.progress.fraction
        if t < 1.0 and not self.versions_wanted:
            # No reader sees this version: keep the state and the growth
            # fit current but build nothing (the t = 1 version always
            # is built).
            if self._state.n_groups:
                self._inference.observe(self._state, t)
                self._has_emitted = True
            return []
        if self._state.n_groups == 0:
            return self._emit_empty()
        self._inference.observe(self._state, t)
        out = self._inference.infer(self._state, t)
        if t >= 1.0:
            self._emitted_final = True
        self._has_emitted = True
        self._last_schema = out.schema
        return [
            Message(frame=out, progress=self.progress,
                    kind=Delivery.REPLACE)
        ]

    def _emit_empty(self) -> list[Message]:
        """Overwrite a previously-emitted estimate with an empty REPLACE
        snapshot when the state has no groups.

        A REPLACE input that shrinks from non-empty to empty resets the
        state to zero groups; staying silent here would leave the stale
        previous estimate in every downstream sink forever.  Before
        anything was emitted there is nothing to retract, so empty input
        prefixes still produce no spurious snapshots."""
        if not self._has_emitted:
            return []
        # When something was emitted, reusing its schema (not the
        # planned one) keeps attribute kinds/dtypes consistent with the
        # snapshots already sitting in downstream sinks.
        schema = (self._last_schema if self._last_schema is not None
                  else self.output_info.schema)
        if self.progress.fraction >= 1.0:
            self._emitted_final = True
        return [
            Message(frame=DataFrame.empty(schema), progress=self.progress,
                    kind=Delivery.REPLACE)
        ]

    def _handle_local(self, message: Message) -> list[Message]:
        if message.frame.n_rows == 0:
            return [message.replaced_frame(
                DataFrame.empty(self.output_info.schema)
            )]
        out = group_aggregate(message.frame, list(self.by),
                              list(self.specs))
        # Local-mode outputs are exact: demote aggregates to constant and
        # coerce to the planned column order / dtypes.
        aliases = {spec.alias for spec in self.specs}
        data = {
            name: (
                out.column(name).astype(np.float64)
                if name in aliases
                else out.column(name)
            )
            for name in self.output_info.schema.names
        }
        out = DataFrame(data, schema=self.output_info.schema)
        return [message.replaced_frame(out)]

    def _final_flush(self) -> list[Message]:
        """Guarantee a t = 1 exact snapshot exists (2C convergence)."""
        if self.local_mode or self._emitted_final:
            return []
        assert self._state is not None and self._inference is not None
        if self._state.n_groups == 0:
            # Same stale-estimate guard as _handle_message: retract a
            # previously-emitted estimate with an empty final snapshot.
            self._emitted_final = True
            return self._emit_empty()
        out = self._inference.infer(self._state, 1.0)
        self._emitted_final = True
        self._has_emitted = True
        return [
            Message(frame=out, progress=self.progress,
                    kind=Delivery.REPLACE)
        ]

"""Growth-based aggregate inference: intrinsic → extrinsic states (§5.1).

``AggregateInference`` owns one :class:`GrowthModel` per aggregate node.
On each emission it (1) observes the node's mean group cardinality at the
current progress, (2) estimates per-group final cardinalities
``x̂ = x / t^w`` (Eq. 4), and (3) applies the aggregate-aware estimator of
every requested aggregate (§5.3).  With a :class:`CIConfig` it additionally
emits per-estimate standard deviations (``<alias>__sigma`` columns) from
the §6 variance rules.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe.frame import DataFrame
from repro.dataframe.schema import AttributeKind, Field, Schema, dtype_of
from repro.core import ci as ci_mod
from repro.core.ci import CIConfig
from repro.core.growth import GrowthModel
from repro.core.mergeable import AGGREGATES, CARDINALITY_COLUMN, Reading
from repro.core.state import GroupedAggregateState


class AggregateInference:
    """Produces extrinsic (estimate) frames from an aggregate's intrinsic
    state."""

    def __init__(
        self,
        growth: GrowthModel,
        ci: CIConfig | None = None,
    ) -> None:
        self.growth = growth
        self.ci = ci

    # -- growth bookkeeping ---------------------------------------------------
    def observe(self, state: GroupedAggregateState, t: float) -> None:
        """Record (t, mean group cardinality) into the growth model."""
        if 0.0 < t < 1.0 and state.n_groups > 0:
            self.growth.observe(t, state.mean_cardinality)

    # -- estimation --------------------------------------------------------------
    def infer(self, state: GroupedAggregateState, t: float) -> DataFrame:
        """Extrinsic snapshot: keys + one estimate column per AggSpec."""
        intrinsic = state.state_frame()
        snap = self.growth.snapshot()
        card = intrinsic.column(CARDINALITY_COLUMN).astype(np.float64)
        scale = 1.0 if t >= 1.0 else snap.scale(t)
        x_hat = card * scale

        keys = state.output_keys()
        data: dict[str, np.ndarray] = {
            name: intrinsic.column(name) for name in keys
        }
        fields = [
            Field(name, dtype_of(intrinsic.column(name)),
                  AttributeKind.CONSTANT)
            for name in keys
        ]

        var_x_hat = (
            ci_mod.var_count(x_hat, t, snap.var_w)
            if self.ci is not None
            else None
        )
        fpc = max(0.0, 1.0 - t)
        for spec in state.specs:
            row = AGGREGATES[spec.agg]
            reading = Reading(spec, state.parts(spec), card, x_hat, fpc,
                              var_x_hat)
            estimate = row.estimate(reading)
            data[spec.alias] = estimate
            fields.append(Field(spec.alias, dtype_of(estimate),
                                AttributeKind.MUTABLE))
            if self.ci is None:
                continue
            sigma = (row.sigma(reading, estimate) if row.sigma is not None
                     else np.full_like(estimate, np.nan))
            name = ci_mod.sigma_column(spec.alias)
            data[name] = sigma
            fields.append(Field(name, dtype_of(sigma),
                                AttributeKind.MUTABLE))
        return DataFrame(data, schema=Schema(fields))

"""edf core: data model, growth-based inference, confidence intervals.

This package is the paper's primary contribution (§3–§6): the evolving
data frame model (properties + states), the monomial cardinality growth
model, aggregate-aware estimators, and the confidence-interval extension.
"""

from repro.core.ci import (
    CIConfig,
    SIGMA_SUFFIX,
    chebyshev_k,
    interval,
    propagate_map_variance,
    sigma_column,
)
from repro.core.edf import EdfSnapshot, EvolvingDataFrame
from repro.core.estimators import (
    estimate_avg,
    estimate_count,
    estimate_count_distinct,
    estimate_order_statistic,
    estimate_sum,
    estimate_variance,
)
from repro.core.growth import (
    GrowthModel,
    GrowthSnapshot,
    StreamingLogLogRegression,
)
from repro.core.inference import AggregateInference
from repro.core.mergeable import CARDINALITY_COLUMN
from repro.core.orderstat import (
    DEFAULT_SKETCH_SIZE,
    OrderStatState,
    QUANTILE_MODES,
)
from repro.core.properties import Delivery, Progress, StreamInfo
from repro.core.state import (
    GroupedAggregateState,
    SYNTHETIC_KEY,
)

__all__ = [
    "AggregateInference",
    "CARDINALITY_COLUMN",
    "CIConfig",
    "DEFAULT_SKETCH_SIZE",
    "Delivery",
    "EdfSnapshot",
    "EvolvingDataFrame",
    "GroupedAggregateState",
    "GrowthModel",
    "GrowthSnapshot",
    "OrderStatState",
    "Progress",
    "QUANTILE_MODES",
    "SIGMA_SUFFIX",
    "StreamInfo",
    "StreamingLogLogRegression",
    "SYNTHETIC_KEY",
    "chebyshev_k",
    "estimate_avg",
    "estimate_count",
    "estimate_count_distinct",
    "estimate_order_statistic",
    "estimate_sum",
    "estimate_variance",
    "interval",
    "propagate_map_variance",
    "sigma_column",
]

"""Evaluation metrics (paper §8.1): MAPE, recall, precision, time-to-
error, and relative CI range.

Group alignment is by key tuple; MAPE averages |est − exact| / |exact|
over the groups present in *both* frames (the paper's protocol — missing
groups are a recall problem, not a value-error problem) and over all value
columns.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.dataframe import DataFrame


def _key_rows(frame: DataFrame, keys: Sequence[str]) -> list[tuple]:
    if not keys:
        return [() for _ in range(frame.n_rows)]
    columns = [frame.column(k).tolist() for k in keys]
    return list(zip(*columns)) if columns else []


def _index_by_key(frame: DataFrame, keys: Sequence[str]) -> dict:
    return {key: i for i, key in enumerate(_key_rows(frame, keys))}


def mape(
    estimate: DataFrame,
    exact: DataFrame,
    keys: Sequence[str],
    values: Sequence[str],
) -> float:
    """Mean absolute percentage error (in %) over common groups.

    Exact zeros are skipped (undefined relative error).  Returns NaN when
    nothing is comparable (no common groups or no value columns).
    """
    if not values:
        return float("nan")
    est_index = _index_by_key(estimate, keys)
    exact_index = _index_by_key(exact, keys)
    common = [k for k in exact_index if k in est_index]
    if not common:
        return float("nan")
    errors: list[float] = []
    for column in values:
        est_col = estimate.column(column).astype(np.float64)
        exact_col = exact.column(column).astype(np.float64)
        for key in common:
            truth = exact_col[exact_index[key]]
            guess = est_col[est_index[key]]
            if truth == 0 or math.isnan(truth):
                continue
            if math.isnan(guess):
                errors.append(1.0)  # missing estimate counts as 100%
                continue
            errors.append(abs(guess - truth) / abs(truth))
    if not errors:
        return float("nan")
    return 100.0 * float(np.mean(errors))


def recall(estimate: DataFrame, exact: DataFrame,
           keys: Sequence[str]) -> float:
    """Fraction of final-result groups present in the estimate (in %)."""
    exact_keys = set(_key_rows(exact, keys))
    if not exact_keys:
        return 100.0
    est_keys = set(_key_rows(estimate, keys))
    return 100.0 * len(exact_keys & est_keys) / len(exact_keys)


def precision(estimate: DataFrame, exact: DataFrame,
              keys: Sequence[str]) -> float:
    """Fraction of estimated groups that exist in the final result."""
    est_keys = set(_key_rows(estimate, keys))
    if not est_keys:
        return 100.0
    exact_keys = set(_key_rows(exact, keys))
    return 100.0 * len(est_keys & exact_keys) / len(est_keys)


def time_to_error(
    series: Sequence[tuple[float, float]],
    threshold_pct: float,
) -> float | None:
    """Earliest wall time at which the error drops to ``threshold_pct``
    (and stays measurable); ``series`` is [(wall_time, mape_pct), ...].
    Returns None if the threshold is never reached."""
    for wall, err in series:
        if not math.isnan(err) and err <= threshold_pct:
            return wall
    return None


def relative_ci_range(
    estimate: np.ndarray,
    exact: np.ndarray,
    sigma: np.ndarray,
    k: float,
) -> np.ndarray:
    """|ŷ − y| / (k·σ): < 1 means the true answer is inside the CI
    (paper Fig 10b).  NaN where σ is NaN or zero."""
    estimate = np.asarray(estimate, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.abs(estimate - exact) / (k * sigma)
    out[~np.isfinite(out)] = np.nan
    return out


def median_or_nan(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v is not None and not math.isnan(v)]
    if not cleaned:
        return float("nan")
    return float(np.median(cleaned))


def fastest_per_sample(*passes: Sequence[float]) -> np.ndarray:
    """Each sample's fastest time over several passes that time the same
    samples in the same order: foreign load landing in one pass reads
    as noise in that pass only, not as a slower sample."""
    return np.min(np.asarray(passes, dtype=np.float64), axis=0)


def window_medians(*passes: Sequence[float]) -> tuple[float, float]:
    """Early and late per-message latency of a timed stream: the medians
    of its second quarter and of its last quarter (the first quarter is
    warm-up).  Given several passes over the same messages, each message
    counts with its fastest time (:func:`fastest_per_sample`), so
    foreign load landing in one pass's late window does not read as
    growth."""
    times = fastest_per_sample(*passes)
    q = len(times) // 4
    return float(np.median(times[q:2 * q])), float(np.median(times[-q:]))


def ratio(numerator: float | None, denominator: float | None) -> float:
    """Safe ratio for speedup/slowdown tables."""
    if (
        numerator is None or denominator is None
        or denominator == 0 or math.isnan(numerator)
        or math.isnan(denominator)
    ):
        return float("nan")
    return numerator / denominator

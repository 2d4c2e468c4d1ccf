"""Confidence intervals for Deep OLA (paper §6 + Appendix B).

The pipeline is: (1) estimate initial variances of mutable attributes when
they first appear (aggregation-specific estimators), (2) propagate variance
through downstream differentiable operations with the delta method
(first-order Taylor / "propagation of uncertainty"), and (3) derive
distribution-free intervals from variances via Chebyshev's inequality.

Substitutions relative to the paper (ROADMAP.md items 1(c) and 2 track
the gaps they leave):

* map/projection propagation uses central finite differences instead of
  automatic differentiation (identical first-order result, no AD library);
* cross-covariances between distinct mutable attributes are not tracked
  (Σ is kept diagonal) — TPC-H pipelines propagate few interacting
  attributes, and the paper itself notes only "a small number of
  covariances are relevant";
* min/max initial variances (GEV fitting in the paper) are reported as NaN
  ("unstable" CI in the paper's terminology).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import InferenceError
from repro.dataframe.expr import Expr
from repro.dataframe.frame import DataFrame

#: Suffix appended to an estimate column to hold its standard deviation.
SIGMA_SUFFIX = "__sigma"


def sigma_column(alias: str) -> str:
    """Name of the uncertainty column paired with estimate column
    ``alias``."""
    return alias + SIGMA_SUFFIX


def chebyshev_k(confidence: float) -> float:
    """Chebyshev multiplier k with P(|X−μ| ≥ kσ) ≤ 1 − confidence.

    k = sqrt(1 / (1 − confidence)); k ≈ 4.47 for a 95% interval, matching
    the paper's "k ≈ 4.5 for 95% CI".
    """
    if not 0.0 < confidence < 1.0:
        raise InferenceError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return math.sqrt(1.0 / (1.0 - confidence))


@dataclass(frozen=True)
class CIConfig:
    """Confidence-interval settings for an aggregation node."""

    confidence: float = 0.95

    @property
    def k(self) -> float:
        return chebyshev_k(self.confidence)


def interval(estimate: np.ndarray, sigma: np.ndarray,
             k: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev interval [est − kσ, est + kσ] (NaN σ → NaN bounds)."""
    estimate = np.asarray(estimate, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return estimate - k * sigma, estimate + k * sigma


# ---------------------------------------------------------------------------
# Initial variances (paper §6 "Initial Variance", Appendix B)
# ---------------------------------------------------------------------------

def var_count(x_hat: np.ndarray, t: float, var_w: float) -> np.ndarray:
    """Var(f_count) = (x̂ · ln(1/t))² · Var(w)   (Eq. 10/12)."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if t >= 1.0:
        return np.zeros_like(x_hat)
    log_term = math.log(1.0 / t)
    return (x_hat * log_term) ** 2 * var_w


def value_variance(count: np.ndarray, total: np.ndarray,
                   sumsq: np.ndarray) -> np.ndarray:
    """Per-group sample variance s² of the underlying values from the
    mergeable (count, sum, sumsq) representation."""
    count = np.asarray(count, dtype=np.float64)
    total = np.asarray(total, dtype=np.float64)
    sumsq = np.asarray(sumsq, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        m2 = sumsq - np.where(
            count > 0, total * total / np.maximum(count, 1.0), 0.0
        )
        s2 = np.where(count > 1, np.maximum(m2, 0.0) /
                      np.maximum(count - 1.0, 1.0), 0.0)
    return s2


def var_partial_sum(count: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """CLT variance of a partial sum of ``count`` i.i.d. samples: x · s²."""
    return np.asarray(count, dtype=np.float64) * np.asarray(
        s2, dtype=np.float64
    )


def var_sum(
    y: np.ndarray,
    x: np.ndarray,
    x_hat: np.ndarray,
    var_y: np.ndarray,
    var_x_hat: np.ndarray,
) -> np.ndarray:
    """Var(f_sum) = (1/x²)·[Var(y)·x̂² + Var(x̂)·y²]   (Eq. 11/13)."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(
            x > 0,
            (var_y * x_hat**2 + var_x_hat * y**2) / np.maximum(x, 1.0) ** 2,
            0.0,
        )
    return out


def var_avg(s2: np.ndarray, count: np.ndarray) -> np.ndarray:
    """CLT variance of a sample mean: s² / x (paper §6 initial variance)."""
    count = np.asarray(count, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(count > 0, s2 / np.maximum(count, 1.0), 0.0)


def var_count_distinct(
    y: np.ndarray,
    x: np.ndarray,
    x_hat: np.ndarray,
    solution: np.ndarray,
    var_y: np.ndarray,
    var_x_hat: np.ndarray,
) -> np.ndarray:
    """Var(f_cd) via implicit differentiation of Eq. (6) (Eq. 15–19).

    ``solution`` is the Newton–Raphson answer Y; ``x`` is the observed
    group cardinality and ``x_hat`` its estimated final value.  Uses the
    same h(z) kernel as the estimator and the digamma identity
    h'(z) = h(z)·(ψ(X−x−z+1) − ψ(X−z+1)).
    """
    # Deferred so the CI module imports without scipy (estimators pulls
    # scipy at module scope); count_distinct CI is the only caller.
    from scipy.special import digamma  # lint: allow(local-import)

    from repro.core.estimators import _log_h  # lint: allow(local-import)

    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    solution = np.asarray(solution, dtype=np.float64)
    var_y = np.asarray(var_y, dtype=np.float64)
    var_x_hat = np.asarray(var_x_hat, dtype=np.float64)

    out = np.zeros_like(solution)
    # Valid only where estimation actually ran: a non-degenerate sample and
    # z = X/Y strictly inside the h() domain (z < X − x + 1).
    z_all = np.divide(
        x_hat, solution, out=np.full_like(solution, np.inf),
        where=solution > 0,
    )
    ok = (solution > 0) & (x > 0) & (y > 0) & (z_all < x_hat - x + 1.0)
    if not ok.any():
        return out
    big_x, sol, xx = x_hat[ok], solution[ok], x[ok]
    z = big_x / sol
    h = np.exp(_log_h(z, xx, big_x))
    h_prime = h * (
        digamma(big_x - xx - z + 1.0) - digamma(big_x - z + 1.0)
    )
    denom = (1.0 - h) + z * h_prime
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (var_y[ok] + var_x_hat[ok] * h_prime**2) / np.maximum(
            denom**2, 1e-18
        )
    out[ok] = np.where(np.isfinite(var), np.maximum(var, 0.0), 0.0)
    return out


def proxy_var_distinct_count(y: np.ndarray,
                             solution: np.ndarray) -> np.ndarray:
    """Occupancy-model proxy for Var(y): y(1 − y/Y) (paper cites the
    Poissonized occupied-boxes variance [16]; this is its binomial
    moment-matched form)."""
    y = np.asarray(y, dtype=np.float64)
    solution = np.asarray(solution, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.maximum(y * (1.0 - y / np.maximum(solution, 1.0)), 0.0)


# ---------------------------------------------------------------------------
# Variance propagation through maps (Appendix B "Mapping and Projection")
# ---------------------------------------------------------------------------

#: Relative step used by the central finite-difference Jacobian.
_FD_RELATIVE_STEP = 1e-6


def propagate_map_variance(
    frame: DataFrame,
    expr: Expr,
    input_variances: Mapping[str, np.ndarray],
) -> np.ndarray:
    """First-order (delta-method) variance of ``expr`` over ``frame``.

    ``input_variances`` maps mutable input column names to per-row variance
    arrays.  Derivatives are taken by central finite differences; columns
    absent from ``input_variances`` are treated as exact.  Covariances are
    not tracked (diagonal Σ — see module docstring).
    """
    referenced = expr.columns()
    variance = np.zeros(frame.n_rows, dtype=np.float64)
    for name, var in input_variances.items():
        if name not in referenced:
            continue
        base = frame.column(name).astype(np.float64, copy=False)
        step = _FD_RELATIVE_STEP * np.maximum(np.abs(base), 1.0)
        plus = np.asarray(
            expr.evaluate(frame.with_column(name, base + step)),
            dtype=np.float64,
        )
        minus = np.asarray(
            expr.evaluate(frame.with_column(name, base - step)),
            dtype=np.float64,
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            derivative = (plus - minus) / (2.0 * step)
        derivative = np.where(np.isfinite(derivative), derivative, 0.0)
        variance = variance + derivative**2 * np.asarray(var,
                                                         dtype=np.float64)
    return variance

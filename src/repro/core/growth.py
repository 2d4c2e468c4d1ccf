"""Cardinality growth model (paper §5.2).

Wake models the expected group cardinality as a monomial ``E[X_i(t)] =
c_i * t^w`` with one shared power ``w`` per aggregate node, fitted by a
streaming ordinary-least-squares regression of ``log(mean cardinality)``
on ``log t`` with O(1) time/space per observation.

Shortcuts mirror the paper's Fig 4 taxonomy:

* grouping by (a superset of) the input clustering key → ``w`` pinned to 0
  (groups are complete once observed; values exact);
* base-table DELTA streams → prior ``w = 1`` until two observations exist;
* REPLACE (snapshot) inputs → prior ``w = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InferenceError


class StreamingLogLogRegression:
    """Incremental OLS of ``log y`` on ``log x`` (O(1) per observation).

    Tracks sufficient statistics (n, Σu, Σv, Σu², Σuv, Σv²) where
    ``u = log x`` and ``v = log y``.  Exposes the fitted slope, intercept,
    and the OLS slope-variance estimate used by the CI machinery
    (paper §6: Var(w) via the ordinary-least-squares parameter variance).
    """

    def __init__(self) -> None:
        self._n = 0
        self._su = 0.0
        self._sv = 0.0
        self._suu = 0.0
        self._suv = 0.0
        self._svv = 0.0

    def observe(self, x: float, y: float) -> None:
        """Add one (x, y) pair; both must be positive."""
        if x <= 0 or y <= 0:
            raise InferenceError(
                f"log-log regression requires positive values, got "
                f"({x}, {y})"
            )
        u, v = math.log(x), math.log(y)
        self._n += 1
        self._su += u
        self._sv += v
        self._suu += u * u
        self._suv += u * v
        self._svv += v * v

    @property
    def n(self) -> int:
        return self._n

    @property
    def _sxx(self) -> float:
        return self._suu - self._su * self._su / self._n

    def can_fit(self) -> bool:
        """At least two observations with distinct x values."""
        return self._n >= 2 and self._sxx > 1e-12

    @property
    def slope(self) -> float:
        if not self.can_fit():
            raise InferenceError(
                "slope is undefined with fewer than two distinct observations"
            )
        sxy = self._suv - self._su * self._sv / self._n
        return sxy / self._sxx

    @property
    def intercept(self) -> float:
        """Intercept of the log-log fit (``log c`` in the monomial)."""
        return (self._sv - self.slope * self._su) / self._n

    @property
    def slope_variance(self) -> float:
        """OLS estimate of Var(slope); 0 with < 3 observations."""
        if self._n < 3 or not self.can_fit():
            return 0.0
        slope = self.slope
        sxy = self._suv - self._su * self._sv / self._n
        syy = self._svv - self._sv * self._sv / self._n
        ss_res = max(0.0, syy - slope * sxy)
        sigma2 = ss_res / (self._n - 2)
        return sigma2 / self._sxx


@dataclass(frozen=True)
class GrowthSnapshot:
    """The growth state used for one inference pass."""

    w: float
    var_w: float
    n_observations: int

    def scale(self, t: float) -> float:
        """Growth-based scale factor ``t^{-w}`` (1 at t=1; never < 1)."""
        if not 0.0 < t <= 1.0:
            raise InferenceError(f"progress t must be in (0, 1], got {t}")
        return t ** (-self.w)


class GrowthModel:
    """Per-node monomial growth ``c · t^w`` with priors and clamping.

    ``fixed_w`` pins the power analytically (the clustering-key shortcut).
    Otherwise ``prior_w`` is reported until the regression has two distinct
    observations, after which the fitted slope (clamped to ``bounds``) wins.
    """

    #: Allowed range for fitted powers.  Cross joins can reach w≈2; anything
    #: above 3 is treated as a mis-fit and clamped (paper §5.5 motivates the
    #: restriction to simple monomials).
    DEFAULT_BOUNDS = (0.0, 3.0)

    def __init__(
        self,
        prior_w: float = 1.0,
        fixed_w: float | None = None,
        bounds: tuple[float, float] = DEFAULT_BOUNDS,
    ) -> None:
        if fixed_w is not None and not (
            bounds[0] <= fixed_w <= bounds[1]
        ):
            raise InferenceError(
                f"fixed_w {fixed_w} outside bounds {bounds}"
            )
        self._prior_w = prior_w
        self._fixed_w = fixed_w
        self._bounds = bounds
        self._regression = StreamingLogLogRegression()

    @classmethod
    def pinned(cls, w: float) -> "GrowthModel":
        """A growth model with an analytically known power."""
        return cls(fixed_w=w)

    def observe(self, t: float, mean_cardinality: float) -> None:
        """Record the mean group cardinality observed at progress ``t``."""
        if self._fixed_w is not None:
            return  # nothing to fit
        if t >= 1.0 or mean_cardinality <= 0:
            # t == 1 carries no information about growth (scale is 1) and
            # zero cardinality would break the log transform.
            return
        self._regression.observe(t, mean_cardinality)

    def snapshot(self) -> GrowthSnapshot:
        """Current (w, Var(w)) to use for inference."""
        if self._fixed_w is not None:
            return GrowthSnapshot(self._fixed_w, 0.0, 0)
        if not self._regression.can_fit():
            return GrowthSnapshot(self._prior_w, 0.0, self._regression.n)
        lo, hi = self._bounds
        w = min(hi, max(lo, self._regression.slope))
        return GrowthSnapshot(
            w, self._regression.slope_variance, self._regression.n
        )

"""Unit + property tests for the monomial growth model (paper §5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.growth import (
    GrowthModel,
    GrowthSnapshot,
    StreamingLogLogRegression,
)
from repro.errors import InferenceError


class TestStreamingRegression:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.05, 1.0, size=40)
        ys = 3.0 * xs**0.7 * np.exp(rng.normal(0, 0.05, size=40))
        reg = StreamingLogLogRegression()
        for x, y in zip(xs, ys):
            reg.observe(x, y)
        slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        assert reg.slope == pytest.approx(slope, rel=1e-9)
        assert reg.intercept == pytest.approx(intercept, rel=1e-9)

    def test_exact_monomial_recovered(self):
        reg = StreamingLogLogRegression()
        for t in (0.1, 0.2, 0.4, 0.8):
            reg.observe(t, 5.0 * t**1.3)
        assert reg.slope == pytest.approx(1.3, rel=1e-9)
        assert np.exp(reg.intercept) == pytest.approx(5.0, rel=1e-9)
        assert reg.slope_variance == pytest.approx(0.0, abs=1e-12)

    def test_cannot_fit_single_point(self):
        reg = StreamingLogLogRegression()
        reg.observe(0.5, 2.0)
        assert not reg.can_fit()
        with pytest.raises(InferenceError):
            _ = reg.slope

    def test_cannot_fit_duplicate_x(self):
        reg = StreamingLogLogRegression()
        reg.observe(0.5, 2.0)
        reg.observe(0.5, 3.0)
        assert not reg.can_fit()

    def test_rejects_nonpositive(self):
        reg = StreamingLogLogRegression()
        with pytest.raises(InferenceError):
            reg.observe(0.0, 1.0)
        with pytest.raises(InferenceError):
            reg.observe(1.0, -1.0)

    def test_slope_variance_increases_with_noise(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0.1, 1.0, 30)

        def fitted_var(noise):
            reg = StreamingLogLogRegression()
            for x in xs:
                reg.observe(x, 2.0 * x * np.exp(rng.normal(0, noise)))
            return reg.slope_variance

        assert fitted_var(0.3) > fitted_var(0.01)


class TestGrowthModel:
    def test_prior_until_two_observations(self):
        model = GrowthModel(prior_w=1.0)
        assert model.snapshot().w == 1.0
        model.observe(0.1, 10.0)
        assert model.snapshot().w == 1.0  # still prior
        model.observe(0.2, 20.0)
        assert model.snapshot().w == pytest.approx(1.0)  # fitted linear

    def test_fits_sublinear(self):
        model = GrowthModel(prior_w=1.0)
        for t in (0.1, 0.2, 0.4, 0.8):
            model.observe(t, 4.0 * t**0.5)
        assert model.snapshot().w == pytest.approx(0.5, rel=1e-9)

    def test_pinned_ignores_observations(self):
        model = GrowthModel.pinned(0.0)
        model.observe(0.1, 5.0)
        model.observe(0.5, 50.0)
        snap = model.snapshot()
        assert snap.w == 0.0
        assert snap.var_w == 0.0

    def test_pinned_outside_bounds_rejected(self):
        with pytest.raises(InferenceError):
            GrowthModel(fixed_w=5.0)

    def test_clamping(self):
        model = GrowthModel(prior_w=1.0, bounds=(0.0, 2.0))
        # extremely steep growth -> clamped to 2
        for t, y in ((0.1, 1e-4), (0.9, 1e4)):
            model.observe(t, y)
        assert model.snapshot().w == 2.0

    def test_t_one_and_zero_cardinality_skipped(self):
        model = GrowthModel(prior_w=1.0)
        model.observe(1.0, 100.0)  # no information
        model.observe(0.5, 0.0)  # would break log
        assert model.snapshot().n_observations == 0

    def test_scale_factor(self):
        snap = GrowthSnapshot(w=1.0, var_w=0.0, n_observations=5)
        assert snap.scale(0.25) == pytest.approx(4.0)
        assert snap.scale(1.0) == pytest.approx(1.0)
        zero = GrowthSnapshot(w=0.0, var_w=0.0, n_observations=5)
        assert zero.scale(0.1) == pytest.approx(1.0)

    def test_scale_rejects_bad_t(self):
        snap = GrowthSnapshot(w=1.0, var_w=0.0, n_observations=1)
        with pytest.raises(InferenceError):
            snap.scale(0.0)
        with pytest.raises(InferenceError):
            snap.scale(1.5)


@given(
    w=st.floats(0.0, 2.0),
    c=st.floats(0.5, 100.0),
    ts=st.lists(
        st.floats(0.02, 0.99), min_size=3, max_size=15, unique=True
    ),
)
@settings(max_examples=60, deadline=None)
def test_growth_model_recovers_noiseless_monomial(w, c, ts):
    """Property: on noiseless monomial data the fitted power equals w."""
    model = GrowthModel(prior_w=0.0)
    for t in ts:
        model.observe(t, c * t**w)
    snap = model.snapshot()
    assert snap.w == pytest.approx(w, abs=1e-6)
    # And the implied final-cardinality estimate x/t^w recovers c exactly.
    t_last = ts[-1]
    estimate = (c * t_last**w) * snap.scale(t_last)
    assert estimate == pytest.approx(c, rel=1e-6)

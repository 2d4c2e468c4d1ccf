"""Unit tests for benchmark metrics."""

import math

import numpy as np
import pytest

from repro.bench import metrics
from repro.dataframe import DataFrame


def frame(keys, values):
    return DataFrame({"k": np.array(keys), "v": np.array(values)})


class TestMape:
    def test_exact_match_zero(self):
        exact = frame([1, 2], [10.0, 20.0])
        assert metrics.mape(exact, exact, ["k"], ["v"]) == 0.0

    def test_known_error(self):
        est = frame([1, 2], [11.0, 18.0])
        exact = frame([1, 2], [10.0, 20.0])
        got = metrics.mape(est, exact, ["k"], ["v"])
        assert got == pytest.approx(100 * (0.1 + 0.1) / 2)

    def test_missing_groups_ignored_for_mape(self):
        est = frame([1], [10.0])
        exact = frame([1, 2], [10.0, 20.0])
        assert metrics.mape(est, exact, ["k"], ["v"]) == 0.0

    def test_zero_truth_skipped(self):
        est = frame([1, 2], [5.0, 18.0])
        exact = frame([1, 2], [0.0, 20.0])
        got = metrics.mape(est, exact, ["k"], ["v"])
        assert got == pytest.approx(100 * 0.1)

    def test_nan_estimate_counts_full_error(self):
        est = frame([1], [np.nan])
        exact = frame([1], [20.0])
        assert metrics.mape(est, exact, ["k"], ["v"]) == pytest.approx(
            100.0)

    def test_global_no_keys(self):
        est = DataFrame({"v": np.array([105.0])})
        exact = DataFrame({"v": np.array([100.0])})
        assert metrics.mape(est, exact, [], ["v"]) == pytest.approx(5.0)

    def test_no_values_nan(self):
        exact = frame([1], [1.0])
        assert math.isnan(metrics.mape(exact, exact, ["k"], []))

    def test_no_common_groups_nan(self):
        est = frame([9], [1.0])
        exact = frame([1], [1.0])
        assert math.isnan(metrics.mape(est, exact, ["k"], ["v"]))


class TestRecallPrecision:
    def test_recall(self):
        est = frame([1, 2], [0.0, 0.0])
        exact = frame([1, 2, 3, 4], [0.0] * 4)
        assert metrics.recall(est, exact, ["k"]) == 50.0

    def test_precision(self):
        est = frame([1, 2, 9], [0.0] * 3)
        exact = frame([1, 2], [0.0] * 2)
        assert metrics.precision(est, exact, ["k"]) == pytest.approx(
            200 / 3)

    def test_empty_exact_full_recall(self):
        est = frame([1], [0.0])
        exact = frame([], [])
        assert metrics.recall(est, exact, ["k"]) == 100.0

    def test_empty_estimate_full_precision(self):
        est = frame([], [])
        exact = frame([1], [0.0])
        assert metrics.precision(est, exact, ["k"]) == 100.0


class TestTimeToError:
    def test_finds_first_crossing(self):
        series = [(1.0, 50.0), (2.0, 5.0), (3.0, 0.5), (4.0, 0.1)]
        assert metrics.time_to_error(series, 1.0) == 3.0

    def test_never_reached(self):
        assert metrics.time_to_error([(1.0, 10.0)], 1.0) is None

    def test_nan_skipped(self):
        series = [(1.0, float("nan")), (2.0, 0.5)]
        assert metrics.time_to_error(series, 1.0) == 2.0


class TestRelativeCIRange:
    def test_inside_interval(self):
        out = metrics.relative_ci_range(
            np.array([10.0]), np.array([11.0]), np.array([1.0]), k=4.0
        )
        assert out[0] == pytest.approx(0.25)

    def test_nan_sigma(self):
        out = metrics.relative_ci_range(
            np.array([10.0]), np.array([11.0]), np.array([np.nan]), k=4.0
        )
        assert math.isnan(out[0])

    def test_zero_sigma(self):
        out = metrics.relative_ci_range(
            np.array([10.0]), np.array([11.0]), np.array([0.0]), k=4.0
        )
        assert math.isnan(out[0])


class TestHelpers:
    def test_median_or_nan(self):
        assert metrics.median_or_nan([3.0, None, 1.0, float("nan"),
                                      2.0]) == 2.0
        assert math.isnan(metrics.median_or_nan([None]))

    def test_ratio(self):
        assert metrics.ratio(10.0, 2.0) == 5.0
        assert math.isnan(metrics.ratio(None, 2.0))
        assert math.isnan(metrics.ratio(1.0, 0.0))


class TestWindowMedians:
    def test_second_and_last_quarter(self):
        times = [9.0] * 4 + [1.0] * 4 + [5.0] * 4 + [2.0] * 4
        assert metrics.window_medians(times) == (1.0, 2.0)

    def test_each_message_counts_with_its_fastest_pass(self):
        quiet = [1.0] * 8
        loaded = [1.0] * 6 + [4.0] * 2  # foreign load in the late window
        assert metrics.window_medians(loaded) == (1.0, 4.0)
        assert metrics.window_medians(loaded, quiet) == (1.0, 1.0)

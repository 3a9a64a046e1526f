"""Mann-Kendall / Theil-Sen trend detection tests."""

import math

import numpy as np
import pytest

from repro.util.trend import mann_kendall, theil_sen_slope


class TestMannKendall:
    def test_strong_uptrend(self):
        r = mann_kendall(np.arange(30.0))
        assert r.trend == "increasing"
        assert r.p_value < 0.001
        assert r.slope == pytest.approx(1.0)

    def test_strong_downtrend(self):
        r = mann_kendall(np.arange(30.0)[::-1])
        assert r.trend == "decreasing"
        assert r.slope == pytest.approx(-1.0)

    def test_white_noise_has_no_trend(self):
        rng = np.random.default_rng(0)
        r = mann_kendall(rng.normal(size=200))
        assert r.trend == "none"
        assert not r.has_trend

    def test_constant_series(self):
        r = mann_kendall([3.0] * 10)
        assert r.trend == "none"
        assert r.p_value == pytest.approx(1.0)

    def test_too_short_series(self):
        r = mann_kendall([1.0, 2.0])
        assert r.trend == "none"

    def test_times_reorder_samples(self):
        values = [3.0, 1.0, 2.0]
        times = [30.0, 10.0, 20.0]  # sorted: 1, 2, 3 -> rising
        r = mann_kendall(values, times)
        assert r.s_statistic > 0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mann_kendall([1, 2, 3], [1, 2])

    def test_s_statistic_sign_matches_z(self):
        r = mann_kendall([1.0, 3.0, 2.0, 4.0, 5.0])
        assert (r.s_statistic > 0) == (r.z_score > 0)

    def test_alpha_controls_sensitivity(self):
        # A weak trend in noise: strict alpha should not fire.
        rng = np.random.default_rng(3)
        xs = 0.02 * np.arange(40) + rng.normal(size=40)
        strict = mann_kendall(xs, alpha=1e-9)
        assert strict.trend == "none"

    @pytest.mark.parametrize("drift", [0.0, 0.01, 0.03, 0.05, 0.1])
    def test_p_value_is_two_sided_normal_tail(self, drift):
        rng = np.random.default_rng(5)
        r = mann_kendall(drift * np.arange(60) + rng.normal(size=60))

        def phi(x):
            return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        assert abs(r.p_value - 2.0 * (1.0 - phi(abs(r.z_score)))) <= 1e-12

    def test_p_value_positive_for_large_z(self):
        r = mann_kendall(np.arange(200.0))
        assert r.z_score > 20.0
        assert 0.0 < r.p_value < 1e-50
        assert r.trend == "increasing"


class TestTheilSen:
    def test_exact_line(self):
        xs = 2.0 * np.arange(10.0) + 5.0
        assert theil_sen_slope(xs) == pytest.approx(2.0)

    def test_robust_to_outlier(self):
        xs = list(np.arange(20.0))
        xs[10] = 1000.0
        assert theil_sen_slope(xs) == pytest.approx(1.0, rel=0.2)

    def test_short_series(self):
        assert theil_sen_slope([5.0]) == 0.0

    def test_explicit_times(self):
        assert theil_sen_slope([0.0, 10.0], [0.0, 5.0]) == pytest.approx(2.0)

    def test_duplicate_times_ignored(self):
        assert theil_sen_slope([0.0, 1.0, 5.0], [0.0, 0.0, 1.0]) == pytest.approx(4.5)

    def test_all_duplicate_times(self):
        assert theil_sen_slope([1.0, 2.0], [3.0, 3.0]) == 0.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            theil_sen_slope([1, 2], [1, 2, 3])

"""Descriptive statistics tests, including hypothesis properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    coefficient_of_variation,
    fraction_below,
    fraction_between,
    percent_histogram,
    rms,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_population_std(self):
        s = summarize([2.0, 4.0])
        assert s.std == pytest.approx(1.0)  # ddof=0

    def test_empty_gives_nan(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean) and math.isnan(s.median)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_min_le_median_le_max(self, xs):
        s = summarize(xs)
        assert s.minimum <= s.median <= s.maximum


class TestRms:
    def test_known_value(self):
        assert rms([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_empty_nan(self):
        assert math.isnan(rms([]))

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_rms_at_least_abs_mean(self, xs):
        # RMS >= |mean| is the Cauchy-Schwarz / Jensen relation.
        assert rms(xs) >= abs(float(np.mean(xs))) - 1e-6 * (1 + rms(xs))


class TestPercentHistogram:
    def test_sums_to_100(self):
        pct, _ = percent_histogram([1, 2, 3, 4, 5], [0, 2, 4, 6])
        assert pct.sum() == pytest.approx(100.0)

    def test_outliers_clipped_into_edge_bins(self):
        pct, _ = percent_histogram([-100, 50, 1000], [0, 10, 100])
        assert pct.sum() == pytest.approx(100.0)
        assert pct[0] == pytest.approx(100.0 / 3)   # -100 clipped into [0,10)
        assert pct[1] == pytest.approx(200.0 / 3)   # 50 and clipped 1000

    def test_empty_input(self):
        pct, edges = percent_histogram([], [0, 1, 2])
        assert pct.tolist() == [0.0, 0.0]
        assert edges.tolist() == [0, 1, 2]

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            percent_histogram([1], [0])
        with pytest.raises(ValueError):
            percent_histogram([1], [0, 0, 1])

    @given(st.lists(finite_floats, min_size=1, max_size=80))
    def test_total_mass_always_100(self, xs):
        pct, _ = percent_histogram(xs, [-10.0, 0.0, 10.0])
        assert pct.sum() == pytest.approx(100.0)


class TestFractions:
    def test_fraction_between(self):
        assert fraction_between([0, 50, 150], 0, 100) == pytest.approx(2 / 3)

    def test_fraction_below(self):
        assert fraction_below([-1, 0, 1], 0) == pytest.approx(1 / 3)

    def test_empty_nan(self):
        assert math.isnan(fraction_between([], 0, 1))
        assert math.isnan(fraction_below([], 0))


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_known(self):
        assert coefficient_of_variation([2.0, 4.0]) == pytest.approx(1.0 / 3.0)

    def test_zero_mean_nan(self):
        assert math.isnan(coefficient_of_variation([-1.0, 1.0]))

    def test_empty_nan(self):
        assert math.isnan(coefficient_of_variation([]))

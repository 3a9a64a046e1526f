"""Validation helper tests."""

import numpy as np
import pytest

from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
    check_sorted,
)


class TestScalarChecks:
    def test_check_positive_passes(self):
        assert check_positive(1.5, "x") == 1.5

    def test_check_positive_zero_fails(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive(0.0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_non_negative_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be non-negative"):
            check_non_negative(float("nan"), "x")

    def test_check_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValueError, match=r"\(0.0, 1.0\)"):
            check_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_casts_to_float(self):
        assert isinstance(check_positive(3, "x"), float)


class TestSequences:
    def test_check_sorted_ok(self):
        arr = check_sorted([1.0, 1.0, 2.0], "t")
        assert isinstance(arr, np.ndarray)

    def test_check_sorted_fails(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            check_sorted([2.0, 1.0], "t")

    def test_check_sorted_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_sorted(np.zeros((2, 2)), "t")

    def test_check_same_length(self):
        check_same_length([1], [2], "a", "b")
        with pytest.raises(ValueError, match="same length"):
            check_same_length([1], [2, 3], "a", "b")

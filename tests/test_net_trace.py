"""CapacityTrace tests: lookup, integration, algebra, hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.trace import CapacityTrace


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7),
            min_size=n,
            max_size=n,
        )
    )
    return CapacityTrace(times, values)


class TestConstruction:
    def test_constant(self):
        t = CapacityTrace.constant(100.0)
        assert t.value_at(0.0) == 100.0
        assert t.value_at(1e9) == 100.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="times\\[0\\]"):
            CapacityTrace([1.0], [5.0])

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="non-negative"):
            CapacityTrace([0.0], [-1.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            CapacityTrace([0.0, 2.0, 1.0], [1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CapacityTrace([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CapacityTrace([0.0, 1.0], [1.0])

    def test_duplicate_breakpoints_keep_last(self):
        t = CapacityTrace([0.0, 1.0, 1.0], [5.0, 6.0, 7.0])
        assert t.n_pieces == 2
        assert t.value_at(1.0) == 7.0

    def test_immutable_views(self):
        t = CapacityTrace.constant(1.0)
        with pytest.raises(ValueError):
            t.times[0] = 5.0


class TestLookup:
    def test_value_before_zero_clamps(self):
        t = CapacityTrace([0.0, 1.0], [2.0, 3.0])
        assert t.value_at(-5.0) == 2.0

    def test_values_at_vectorised(self):
        t = CapacityTrace([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
        out = t.values_at([-1.0, 0.5, 1.0, 5.0])
        assert out.tolist() == [10.0, 10.0, 20.0, 30.0]

    def test_next_change_after(self):
        t = CapacityTrace([0.0, 1.0, 2.0], [1, 2, 3])
        assert t.next_change_after(0.0) == 1.0
        assert t.next_change_after(1.0) == 2.0
        assert t.next_change_after(2.0) == float("inf")


class TestIntegration:
    def test_integrate_constant(self):
        t = CapacityTrace.constant(5.0)
        assert t.integrate(2.0, 6.0) == pytest.approx(20.0)

    def test_integrate_across_pieces(self):
        t = CapacityTrace([0.0, 10.0], [1.0, 2.0])
        assert t.integrate(5.0, 15.0) == pytest.approx(5.0 + 10.0)

    def test_integrate_reversed_raises(self):
        with pytest.raises(ValueError):
            CapacityTrace.constant(1.0).integrate(2.0, 1.0)

    def test_mean_over(self):
        t = CapacityTrace([0.0, 10.0], [0.0, 10.0])
        assert t.mean_over(0.0, 20.0) == pytest.approx(5.0)
        assert t.mean_over(5.0, 5.0) == 0.0  # point value

    @given(traces(), st.floats(min_value=0, max_value=50), st.floats(min_value=0, max_value=50))
    def test_integral_additivity(self, t, a, b):
        lo, hi = sorted((a, b))
        mid = (lo + hi) / 2
        total = t.integrate(lo, hi)
        parts = t.integrate(lo, mid) + t.integrate(mid, hi)
        assert total == pytest.approx(parts, rel=1e-9, abs=1e-6)

    @given(traces(), st.floats(min_value=0, max_value=50), st.floats(min_value=0.1, max_value=50))
    def test_integral_bounded_by_extremes(self, t, start, width):
        end = start + width
        integral = t.integrate(start, end)
        first = max(int(np.searchsorted(t.times, start, side="right")) - 1, 0)
        last = int(np.searchsorted(t.times, end, side="right")) - 1
        lo = float(np.min(t.values[first : last + 1])) * width
        hi = float(np.max(t.values)) * width
        assert lo - 1e-6 <= integral <= hi + max(1e-6, 1e-9 * hi)


class TestAlgebra:
    def test_minimum(self):
        a = CapacityTrace([0.0, 10.0], [5.0, 1.0])
        b = CapacityTrace([0.0, 5.0], [3.0, 2.0])
        m = CapacityTrace.minimum([a, b])
        assert m.value_at(0.0) == 3.0
        assert m.value_at(6.0) == 2.0
        assert m.value_at(11.0) == 1.0

    def test_minimum_single(self):
        a = CapacityTrace.constant(1.0)
        assert CapacityTrace.minimum([a]) is a

    def test_minimum_empty_raises(self):
        with pytest.raises(ValueError):
            CapacityTrace.minimum([])

    @given(traces(), traces(), st.floats(min_value=0, max_value=60))
    def test_minimum_pointwise_property(self, a, b, u):
        m = CapacityTrace.minimum([a, b])
        assert m.value_at(u) == pytest.approx(min(a.value_at(u), b.value_at(u)))

    def test_equality_and_hash(self):
        a = CapacityTrace([0.0, 1.0], [1.0, 2.0])
        b = CapacityTrace([0.0, 1.0], [1.0, 2.0])
        assert a == b and hash(a) == hash(b)
        assert a != CapacityTrace.constant(1.0)

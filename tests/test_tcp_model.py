"""Analytic TCP model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tcp.model import SlowStartRamp
from tests.tcp_oracle import ideal_transfer_time


class TestIdealTransferTime:
    def test_capacity_bound_for_large_files(self):
        size, cap = 100e6, 1e6
        t = ideal_transfer_time(size, cap, 0.05)
        assert t == pytest.approx(size / cap, rel=0.02)

    def test_small_transfer_is_slow_start_bound(self):
        # 10 KB moves in a few round trips regardless of a huge capacity.
        t = ideal_transfer_time(10_000, 1e9, 0.1)
        assert 0.2 <= t <= 0.5

    def test_window_cap_respected(self):
        t_uncapped = ideal_transfer_time(10e6, 1e7, 0.1)
        t_capped = ideal_transfer_time(10e6, 1e7, 0.1, max_window=65536.0)
        assert t_capped > t_uncapped
        assert t_capped == pytest.approx(10e6 / (65536.0 / 0.1), rel=0.05)

    def test_zero_size(self):
        assert ideal_transfer_time(0.0, 1.0, 0.1) == 0.0

    @given(
        st.floats(min_value=1e4, max_value=1e8),
        st.floats(min_value=1e4, max_value=1e8),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_never_faster_than_capacity(self, size, cap, rtt):
        t = ideal_transfer_time(size, cap, rtt)
        assert t >= size / cap - 1e-9


class TestSlowStartRamp:
    def ramp(self, rtt=0.1, w0=2920.0, wmax=65536.0):
        return SlowStartRamp(rtt=rtt, initial_window=w0, max_window=wmax)

    def test_cap_doubles_per_round(self):
        r = self.ramp()
        assert r.cap_at(0.05) == pytest.approx(29_200.0)
        assert r.cap_at(0.15) == pytest.approx(58_400.0)
        assert r.cap_at(0.25) == pytest.approx(116_800.0)

    def test_cap_saturates_at_peak(self):
        r = self.ramp()
        assert r.cap_at(100.0) == pytest.approx(r.max_window / r.rtt)

    def test_cap_before_activation_zero(self):
        assert self.ramp().cap_at(-1.0) == 0.0

    def test_next_increase_progresses(self):
        r = self.ramp()
        t = 0.0
        seen = []
        for _ in range(10):
            t = r.next_increase_after(t)
            if t == float("inf"):
                break
            seen.append(t)
        assert seen == sorted(seen)
        assert len(seen) == r.rounds_to_peak()

    def test_next_increase_inf_after_peak(self):
        r = self.ramp()
        assert r.next_increase_after(10.0) == float("inf")

    def test_boundary_ulp_robustness(self):
        # One ulp below a round boundary must not schedule a zero-length wait.
        r = self.ramp(rtt=0.18)
        import numpy as np

        boundary = 3 * 0.18
        just_below = float(np.nextafter(boundary, 0.0))
        nxt = r.next_increase_after(just_below)
        assert nxt > boundary + 1e-6 or nxt == float("inf")

    def test_cap_never_overflows_for_huge_elapsed(self):
        r = self.ramp()
        assert r.cap_at(1e9) == pytest.approx(r.max_window / r.rtt)

    def test_rounds_to_peak(self):
        r = SlowStartRamp(rtt=0.1, initial_window=1000.0, max_window=8000.0)
        assert r.rounds_to_peak() == 3

    def test_max_below_initial_rejected(self):
        with pytest.raises(ValueError):
            SlowStartRamp(rtt=0.1, initial_window=10.0, max_window=5.0)

    @given(st.floats(min_value=0, max_value=100))
    def test_cap_monotone_nondecreasing(self, t):
        r = self.ramp()
        assert r.cap_at(t + 0.01) >= r.cap_at(t) - 1e-9

"""Calibration tests: profile draws, process construction, determinism."""

import numpy as np
import pytest

from repro.util.rng import SeedBank
from repro.util.units import bytes_per_s_to_mbps, mbps_to_bytes_per_s
from repro.workloads.calibration import (
    CalibrationParams,
    Calibrator,
    DEFAULT_SITE_PROFILES,
)
from repro.workloads.profiles import ClientProfile, ThroughputClass, Variability
from tests.capacity_oracle import dynamic_range, mean_capacity


def calibrator(seed=0, params=None):
    return Calibrator(params or CalibrationParams(), SeedBank(seed))


class TestClientProfiles:
    def test_deterministic(self):
        a = calibrator(1).client_profile("Italy")
        b = calibrator(1).client_profile("Italy")
        assert a == b

    def test_distinct_clients_differ(self):
        cal = calibrator(1)
        assert cal.client_profile("Italy") != cal.client_profile("Sweden")

    def test_forced_class(self):
        p = calibrator().client_profile("X", forced_class=ThroughputClass.HIGH)
        assert p.throughput_class is ThroughputClass.HIGH
        lo, hi = CalibrationParams().high_base_mbps
        assert lo <= bytes_per_s_to_mbps(p.direct_base) <= hi

    def test_base_in_class_range(self):
        params = CalibrationParams()
        for name in ("a", "b", "c", "d", "e", "f"):
            p = calibrator(3).client_profile(name)
            lo, hi = params.base_range_for(p.throughput_class)
            assert lo <= bytes_per_s_to_mbps(p.direct_base) <= hi

    def test_access_exceeds_base(self):
        p = calibrator().client_profile("X")
        assert p.access_capacity > 2.0 * p.direct_base

    def test_class_distribution_roughly_matches(self):
        cal = calibrator(7)
        draws = [cal.client_profile(f"c{i}").throughput_class for i in range(300)]
        low_frac = sum(d is ThroughputClass.LOW for d in draws) / 300
        assert low_frac == pytest.approx(0.55, abs=0.08)

    def test_high_class_mostly_high_variability(self):
        cal = calibrator(9)
        highs = [
            cal.client_profile(f"h{i}", forced_class=ThroughputClass.HIGH)
            for i in range(200)
        ]
        frac = sum(p.variability is Variability.HIGH for p in highs) / 200
        assert frac == pytest.approx(0.90, abs=0.07)

    def test_overlay_scale_class_ordering(self):
        # Medians: Low clients get relatively better overlay hops than High.
        cal = calibrator(11)
        low = np.median(
            [
                cal.client_profile(f"l{i}", forced_class=ThroughputClass.LOW).overlay_scale
                for i in range(100)
            ]
        )
        high = np.median(
            [
                cal.client_profile(f"g{i}", forced_class=ThroughputClass.HIGH).overlay_scale
                for i in range(100)
            ]
        )
        assert low > high


class TestRelayQuality:
    def test_capped(self):
        params = CalibrationParams()
        cal = calibrator(2)
        qs = [cal.relay_quality(f"r{i}") for i in range(300)]
        assert max(qs) <= params.relay_quality_cap
        assert min(qs) > 0.0

    def test_plateau_exists(self):
        # A handful of relays should sit exactly at the cap.
        params = CalibrationParams()
        cal = calibrator(2)
        qs = [cal.relay_quality(f"r{i}") for i in range(35)]
        assert sum(q == params.relay_quality_cap for q in qs) >= 2


class TestProcesses:
    def profile(self, cls=ThroughputClass.LOW, var=Variability.LOW):
        return ClientProfile(
            name="X",
            throughput_class=cls,
            variability=var,
            direct_base=mbps_to_bytes_per_s(1.0),
            access_capacity=mbps_to_bytes_per_s(4.0),
            overlay_scale=1.1,
        )

    def test_direct_process_mean_near_base(self):
        cal = calibrator()
        site = DEFAULT_SITE_PROFILES["eBay"]
        proc = cal.direct_wan_process(self.profile(), site)
        assert mean_capacity(proc) == pytest.approx(
            mbps_to_bytes_per_s(1.0), rel=0.15
        )

    def test_site_quality_scales_direct(self):
        cal = calibrator()
        p = self.profile()
        google = cal.direct_wan_process(p, DEFAULT_SITE_PROFILES["Google"])
        ms = cal.direct_wan_process(p, DEFAULT_SITE_PROFILES["Microsoft"])
        assert mean_capacity(google) > mean_capacity(ms)

    def test_high_variability_has_wider_range(self):
        cal = calibrator()
        site = DEFAULT_SITE_PROFILES["eBay"]
        low = cal.direct_wan_process(self.profile(var=Variability.LOW), site)
        high = cal.direct_wan_process(self.profile(var=Variability.HIGH), site)
        assert dynamic_range(high) > dynamic_range(low)

    def test_overlay_process_stable(self):
        cal = calibrator()
        proc = cal.overlay_wan_process(self.profile(), "Texas", 1.0)
        trace = proc.sample(3600.0, np.random.default_rng(0))
        values = trace.values
        assert float(np.std(values) / np.mean(values)) < 0.2

    def test_overlay_pair_determinism(self):
        a = calibrator(5).overlay_wan_process(self.profile(), "Texas", 1.0)
        b = calibrator(5).overlay_wan_process(self.profile(), "Texas", 1.0)
        assert a.base == b.base

    def test_relay_server_overprovisioned(self):
        cal = calibrator()
        params = CalibrationParams()
        proc = cal.relay_server_process("Texas", DEFAULT_SITE_PROFILES["eBay"])
        assert mean_capacity(proc) >= mbps_to_bytes_per_s(params.relay_server_mbps[0])

    def test_access_processes(self):
        cal = calibrator()
        p = self.profile()
        assert mean_capacity(cal.client_access_process(p)) == p.access_capacity
        assert mean_capacity(cal.relay_access_process("Texas")) == mbps_to_bytes_per_s(
            CalibrationParams().relay_access_mbps
        )

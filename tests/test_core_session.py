"""Transfer session tests: the full probe -> decide -> fetch flow."""

import numpy as np
import pytest

from repro.core.probe import ProbeMode
from repro.core.session import SessionConfig
from repro.util.units import kb, mb, mbps_to_bytes_per_s


class TestDirectOnly:
    def test_download_direct(self, mini_world):
        w = mini_world(direct_mbps=1.0, file_mb=1.0)
        sim, net, session = w.universe()
        res = session.download_direct("C", "S", "/f")
        assert res.selected_via is None
        assert not res.used_indirect
        assert res.probe is None
        assert res.size == mb(1)
        assert res.duration > 0

    def test_empty_relays_degenerates_to_direct(self, mini_world):
        w = mini_world()
        sim, net, session = w.universe()
        res = session.download("C", "S", "/f", [])
        assert res.probe is None
        assert res.selected_via is None

    def test_end_to_end_equals_transfer_without_probe(self, mini_world):
        w = mini_world()
        sim, net, session = w.universe()
        res = session.download_direct("C", "S", "/f")
        assert res.transfer_throughput == res.end_to_end_throughput
        assert res.probe_overhead_seconds == 0.0


class TestSelection:
    def test_selects_better_relay(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 4.0})
        sim, net, session = w.universe(config=SessionConfig(tcp=fast_tcp))
        res = session.download("C", "S", "/f", ["R1"])
        assert res.selected_via == "R1"
        assert res.used_indirect
        assert res.offered == ("R1",)

    def test_sticks_with_direct_when_better(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=4.0, relay_mbps={"R1": 1.0})
        sim, net, session = w.universe(config=SessionConfig(tcp=fast_tcp))
        res = session.download("C", "S", "/f", ["R1"])
        assert res.selected_via is None

    def test_probe_overhead_recorded(self, mini_world):
        w = mini_world()
        sim, net, session = w.universe()
        res = session.download("C", "S", "/f", ["R1"])
        assert res.probe is not None
        assert res.probe_overhead_seconds == pytest.approx(
            res.probe.overhead_seconds
        )

    def test_completion_time_is_session_end(self, mini_world):
        w = mini_world()
        sim, net, session = w.universe()
        res = session.download("C", "S", "/f", ["R1"])
        assert res.completed_at == sim.now
        assert res.remainder_started_at is not None
        assert res.requested_at <= res.remainder_started_at <= res.completed_at

    def test_improvement_vs_control_positive_for_good_relay(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 3.0}, file_mb=4.0)
        cfg = SessionConfig(tcp=fast_tcp)
        _, _, ctrl = w.universe(config=cfg)
        direct = ctrl.download_direct("C", "S", "/f")
        _, _, sel = w.universe(config=cfg)
        chosen = sel.download("C", "S", "/f", ["R1"])
        improvement = (
            chosen.transfer_throughput - direct.transfer_throughput
        ) / direct.transfer_throughput
        assert improvement > 1.0  # ~3x capacity -> ~200%


class TestProbeCoversFile:
    def test_no_remainder_phase(self, mini_world):
        w = mini_world(file_mb=0.05)  # 50 KB < 100 KB probe
        sim, net, session = w.universe()
        res = session.download("C", "S", "/f", ["R1"])
        assert res.remainder_started_at is None
        assert res.transfer_throughput == res.end_to_end_throughput

    def test_bytes_accounted(self, mini_world):
        w = mini_world(file_mb=0.05)
        sim, net, session = w.universe()
        res = session.download("C", "S", "/f", ["R1"])
        assert res.size == pytest.approx(kb(50))


class TestThroughputAccounting:
    def test_transfer_throughput_excludes_probe(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=2.0, file_mb=4.0)
        sim, net, session = w.universe(config=SessionConfig(tcp=fast_tcp))
        res = session.download("C", "S", "/f", ["R1"])
        # Bulk-phase throughput should be at least the end-to-end number
        # (which pays for the probe phase as well).
        assert res.transfer_throughput >= res.end_to_end_throughput

    def test_bulk_rate_close_to_bottleneck(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=2.0, relay_mbps={"R1": 0.1}, file_mb=4.0)
        sim, net, session = w.universe(config=SessionConfig(tcp=fast_tcp))
        res = session.download("C", "S", "/f", ["R1"])
        assert res.selected_via is None
        assert res.transfer_throughput == pytest.approx(
            mbps_to_bytes_per_s(2.0), rel=0.1
        )


class TestSequentialConfig:
    def test_sequential_mode_selects_max(self, mini_world, fast_tcp):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 2.0, "R2": 6.0})
        cfg = SessionConfig(probe_mode=ProbeMode.SEQUENTIAL, tcp=fast_tcp)
        sim, net, session = w.universe(config=cfg)
        res = session.download("C", "S", "/f", ["R1", "R2"])
        assert res.selected_via == "R2"

    def test_noise_config_requires_rng(self, mini_world):
        w = mini_world()
        cfg = SessionConfig(probe_noise_sigma=0.1)
        with pytest.raises(ValueError, match="rng"):
            w.universe(config=cfg)

    def test_noise_config_with_rng(self, mini_world):
        w = mini_world()
        cfg = SessionConfig(
            probe_mode=ProbeMode.SEQUENTIAL, probe_noise_sigma=0.1
        )
        sim, net, session = w.universe(config=cfg, rng=np.random.default_rng(0))
        res = session.download("C", "S", "/f", ["R1"])
        assert res.selected_via in (None, "R1")


class TestConfigValidation:
    def test_bad_probe_bytes(self):
        with pytest.raises(ValueError):
            SessionConfig(probe_bytes=0)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            SessionConfig(probe_noise_sigma=-0.5)

"""Adaptive (mid-transfer switching) tests.

Mid-transfer switching is the failover half of the resilient session
protocol: these run :class:`TransferSession` with the availability study's
``FAILURES_RESILIENCE`` (default watchdog timing, failover on).
"""

from repro.core.resilience import SessionOutcome
from repro.core.session import SessionConfig, TransferSession
from repro.http.transfer import TcpParams
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.util.units import mb, mbps_to_bytes_per_s
from repro.workloads.failures import FAILURES_RESILIENCE

FAST_TCP = TcpParams(max_window=262_144.0)
ADAPTIVE = SessionConfig(tcp=FAST_TCP, resilience=FAILURES_RESILIENCE)


def adaptive_session(w, config=ADAPTIVE):
    return TransferSession(FluidNetwork(Simulator()), w.builder, config)


class TestStablePath:
    def test_no_switch_on_healthy_transfer(self, mini_world):
        w = mini_world(direct_mbps=2.0, relay_mbps={"R1": 1.0}, file_mb=4.0)
        result = adaptive_session(w).download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.COMPLETED
        assert result.recovery_events == ()
        assert result.probe is not None  # exactly one probe race, no re-probe
        assert result.selected_via is None  # direct wins and is kept

    def test_bytes_fully_delivered(self, mini_world):
        w = mini_world(file_mb=4.0)
        result = adaptive_session(w).download("C", "S", "/f", ["R1"])
        assert result.delivered == result.size == mb(4)
        assert result.transfer_throughput > 0


class TestSwitching:
    def crash_world(self, mini_world, crash_at=4.0, relay_mbps=2.0):
        """Direct path collapses from 4 Mbps to 0.05 Mbps at ``crash_at``.

        The path still trickles, so only the throughput threshold can fire.
        """
        trace = CapacityTrace(
            [0.0, crash_at],
            [mbps_to_bytes_per_s(4.0), mbps_to_bytes_per_s(0.05)],
        )
        return mini_world(
            direct_trace=trace, relay_mbps={"R1": relay_mbps}, file_mb=8.0
        )

    def test_switches_away_from_collapsed_path(self, mini_world):
        w = self.crash_world(mini_world)
        result = adaptive_session(w).download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.FAILED_OVER
        assert result.selected_via is None  # 4 Mbps direct wins the probe
        stall, failover = result.recovery_events
        assert (stall.kind, stall.path) == ("stall", "direct")
        assert stall.detail == 0.0  # progress was seen: not the zero-progress rule
        assert (failover.kind, failover.path) == ("failover", "R1")  # escapes

    def test_adaptive_beats_non_adaptive_on_collapse(self, mini_world):
        w = self.crash_world(mini_world)
        adaptive = adaptive_session(w).download("C", "S", "/f", ["R1"])
        plain = adaptive_session(w, SessionConfig(tcp=FAST_TCP)).download(
            "C", "S", "/f", ["R1"]
        )
        assert plain.outcome is SessionOutcome.COMPLETED
        assert adaptive.duration < 0.5 * plain.duration

    def test_probe_bytes_resume_from_offset(self, mini_world):
        """Every byte is delivered exactly once across phases."""
        w = self.crash_world(mini_world)
        result = adaptive_session(w).download("C", "S", "/f", ["R1"])
        # Completion implies the byte ranges tiled [0, size) exactly; a
        # double-fetch or gap would break the server's range validation.
        assert result.completed_at > result.requested_at
        assert result.outcome is SessionOutcome.FAILED_OVER
        assert result.delivered == result.size == mb(8)
        assert 0.0 < result.recovery_events[0].bytes_received < result.size

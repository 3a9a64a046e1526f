"""Resilient session tests: mid-transfer failover, bounded aborts, identity."""

from unittest import mock

import pytest

from repro.core.resilience import ResilienceConfig, SessionOutcome
from repro.core.session import SessionConfig, SessionResult, TransferSession
from repro.http.transfer import TcpParams
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp import fluid
from repro.tcp.fluid import FluidNetwork
from repro.util.units import mb, mbps_to_bytes_per_s
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG

FAST_TCP = TcpParams(max_window=262_144.0)

#: Failover-enabled protocol with snappy stall detection for small files.
RESILIENCE = ResilienceConfig(
    probe_deadline=30.0,
    failover=True,
    check_interval=2.0,
    grace_period=1.0,
    transfer_deadline=600.0,
)
CONFIG = SessionConfig(tcp=FAST_TCP, resilience=RESILIENCE)


def _dies_at(t, mbps=8.0):
    """A path at ``mbps`` that goes dark forever at ``t``."""
    return CapacityTrace([0.0, t], [mbps_to_bytes_per_s(mbps), 0.0])


def _universe(world, config=CONFIG, *, sanitize=False, start_time=0.0):
    sim = Simulator(start_time=start_time, sanitize=sanitize)
    net = FluidNetwork(sim)
    return sim, TransferSession(net, world.builder, config)


class TestFailover:
    def _failover_world(self, mini_world):
        # R1 is fastest and wins the probe, then dies mid-bulk; R2 and the
        # direct path stay alive as failover targets.
        return mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 8.0, "R2": 2.0},
            relay_traces={"R1": _dies_at(2.0)},
        )

    def test_selected_path_dies_completes_via_failover(self, mini_world):
        w = self._failover_world(mini_world)
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1", "R2"])
        assert result.outcome is SessionOutcome.FAILED_OVER
        assert result.selected_via == "R1"  # the original winner is recorded
        assert result.bytes_received is None
        assert result.delivered == result.size == mb(4.0)
        kinds = [e.kind for e in result.recovery_events]
        assert kinds == ["stall", "failover"]
        stall, failover = result.recovery_events
        assert stall.path == "R1"
        assert failover.path == "R2"  # runner-up before the direct last resort
        assert result.requested_at <= stall.time <= failover.time <= result.completed_at

    def test_failover_timeline_bytes_are_monotone(self, mini_world):
        w = self._failover_world(mini_world)
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1", "R2"])
        received = [e.bytes_received for e in result.recovery_events]
        assert received == sorted(received)
        assert 0.0 < received[0] < result.size

    def test_direct_is_last_resort(self, mini_world):
        # Both relays die: the session must fall back to the direct path
        # and still deliver every byte.
        w = mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 8.0, "R2": 2.0},
            relay_traces={"R1": _dies_at(2.0), "R2": _dies_at(2.0)},
        )
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1", "R2"])
        assert result.outcome is SessionOutcome.FAILED_OVER
        assert result.delivered == result.size
        failover_paths = [
            e.path for e in result.recovery_events if e.kind == "failover"
        ]
        assert failover_paths[-1] == "direct"

    def test_all_paths_dead_aborts_bounded(self, mini_world):
        w = mini_world(
            direct_trace=_dies_at(3.0, 1.0),
            relay_mbps={"R1": 8.0, "R2": 2.0},
            relay_traces={"R1": _dies_at(3.0), "R2": _dies_at(3.0, 2.0)},
        )
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1", "R2"])
        assert result.outcome is SessionOutcome.ABORTED
        assert 0.0 < result.bytes_received < result.size
        assert result.duration <= RESILIENCE.transfer_deadline + 1e-9
        kinds = [e.kind for e in result.recovery_events]
        assert kinds[-1] == "abort"
        assert "backoff" in kinds  # alternates exhausted before giving up
        assert "probe_timeout" in kinds  # the re-probe found nothing alive

    def test_transfer_deadline_aborts_slow_session(self, mini_world):
        # Paths are alive but glacial: only the transfer deadline can end it.
        w = mini_world(direct_mbps=0.05, relay_mbps={"R1": 0.05})
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.ABORTED
        assert result.duration <= RESILIENCE.transfer_deadline + 1e-9
        assert result.bytes_received < result.size
        assert result.recovery_events[-1].kind == "abort"

    def test_healthy_session_is_clean_completed(self, mini_world):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 4.0})
        sim, session = _universe(w)
        result = session.download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.COMPLETED
        assert result.recovery_events == ()
        assert result.bytes_received is None
        assert result.transfer_throughput > 0.0

    def test_resilience_is_inert_on_healthy_paths(self, mini_world):
        """Failover-enabled sessions match the legacy protocol byte-for-byte
        when nothing fails (the watchdog only observes)."""
        legacy_w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 4.0})
        _, legacy_session = _universe(legacy_w, SessionConfig(tcp=FAST_TCP))
        legacy = legacy_session.download("C", "S", "/f", ["R1"])

        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 4.0})
        _, session = _universe(w)
        resilient = session.download("C", "S", "/f", ["R1"])

        assert resilient.completed_at == legacy.completed_at
        assert resilient.remainder_started_at == legacy.remainder_started_at
        assert resilient.transfer_throughput == legacy.transfer_throughput
        assert resilient.selected_via == legacy.selected_via


class TestStudyResilience:
    """The availability study's protocol (``RESILIENT_SESSION_CONFIG``): default
    watchdog timing, so stalls are judged over 4 s windows after a 3 s grace."""

    CONFIG = SessionConfig(tcp=FAST_TCP, resilience=RESILIENT_SESSION_CONFIG.resilience)

    def test_mild_dip_is_not_a_stall(self, mini_world):
        dip = CapacityTrace(
            [0.0, 5.0], [mbps_to_bytes_per_s(2.0), mbps_to_bytes_per_s(1.6)]
        )
        w = mini_world(direct_trace=dip, relay_mbps={"R1": 0.5}, file_mb=4.0)
        _, session = _universe(w, self.CONFIG)
        result = session.download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.COMPLETED
        assert result.recovery_events == ()

    def test_probe_covers_tiny_file(self, mini_world):
        w = mini_world(file_mb=0.05)
        _, session = _universe(w, self.CONFIG)
        result = session.download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.COMPLETED
        assert result.duration > 0.0
        assert result.delivered == result.size == mb(0.05)

    def test_planetlab_scenario_delivers_whole_file(self, section2_scenario):
        config = SessionConfig(
            tcp=TcpParams(max_window=131_072.0), resilience=RESILIENT_SESSION_CONFIG.resilience
        )
        session = section2_scenario.universe(0.0, config=config).session
        relay = section2_scenario.good_static_relay("Italy")
        result = session.download("Italy", "eBay", section2_scenario.resource, [relay])
        assert result.outcome is not SessionOutcome.ABORTED
        assert result.delivered == result.size == section2_scenario.spec.file_bytes


class TestFullDownloadDeadline:
    def test_dead_direct_aborts_with_partial_bytes(self, mini_world):
        w = mini_world(direct_trace=_dies_at(2.0, 1.0))
        sim, session = _universe(w)
        result = session.download_direct("C", "S", "/f")
        assert result.outcome is SessionOutcome.ABORTED
        assert 0.0 < result.bytes_received < result.size
        assert result.duration <= RESILIENCE.transfer_deadline + 1e-9
        assert [e.kind for e in result.recovery_events] == ["abort"]

    def test_healthy_direct_unaffected_by_deadline(self, mini_world):
        w = mini_world(direct_mbps=8.0)
        sim, session = _universe(w)
        result = session.download_direct("C", "S", "/f")
        assert result.outcome is SessionOutcome.COMPLETED
        assert result.bytes_received is None
        assert result.recovery_events == ()


class TestDegenerateResults:
    """S1: degenerate divisions report documented values, never raise."""

    def _result(self, **overrides):
        kwargs = dict(
            client="C",
            server="S",
            resource="/f",
            size=100.0,
            offered=(),
            selected_via=None,
            requested_at=5.0,
            completed_at=5.0,
        )
        kwargs.update(overrides)
        return SessionResult(**kwargs)

    def test_zero_duration_throughput_is_zero(self):
        r = self._result()
        assert r.duration == 0.0
        assert r.end_to_end_throughput == 0.0
        assert r.transfer_throughput == 0.0

    def test_aborted_throughput_counts_partial_goodput(self):
        r = self._result(
            completed_at=15.0,
            outcome=SessionOutcome.ABORTED,
            bytes_received=40.0,
        )
        assert r.delivered == 40.0
        assert r.end_to_end_throughput == pytest.approx(4.0)
        assert r.transfer_throughput == pytest.approx(4.0)  # falls back

    def test_delivered_defaults_to_size(self):
        assert self._result().delivered == 100.0


class TestFailoverDeterminism:
    def _signature(self, result):
        return (
            result.outcome,
            result.requested_at,
            result.completed_at,
            result.remainder_started_at,
            result.bytes_received,
            result.recovery_events,
        )

    def test_engine_modes_identical(self, mini_world):
        """The scalar shared solver and the sparse solve write the same bytes."""
        sigs = []
        for bound in (fluid._SCALAR_MAX_FLOWS, 0):
            w = mini_world(
                direct_mbps=1.0,
                relay_mbps={"R1": 8.0, "R2": 2.0},
                relay_traces={"R1": _dies_at(2.0)},
            )
            _, session = _universe(w)
            with mock.patch.object(fluid, "_SCALAR_MAX_FLOWS", bound):
                result = session.download("C", "S", "/f", ["R1", "R2"])
            sigs.append(self._signature(result))
        assert sigs[0] == sigs[1]

    def test_sanitizer_is_inert_and_clean(self, mini_world):
        sigs = []
        for sanitize in (False, True):
            w = mini_world(
                direct_mbps=1.0,
                relay_mbps={"R1": 8.0, "R2": 2.0},
                relay_traces={"R1": _dies_at(2.0)},
            )
            sim, session = _universe(w, sanitize=sanitize)
            sigs.append(self._signature(session.download("C", "S", "/f", ["R1", "R2"])))
            if sanitize:
                assert sim.sanitizer is not None
                assert sim.sanitizer.checks_run > 0
        assert sigs[0] == sigs[1]

    def test_aborted_session_sanitized_clean(self, mini_world):
        w = mini_world(
            direct_trace=_dies_at(3.0, 1.0),
            relay_mbps={"R1": 8.0},
            relay_traces={"R1": _dies_at(3.0)},
        )
        sim, session = _universe(w, sanitize=True)
        result = session.download("C", "S", "/f", ["R1"])  # must not raise
        assert result.outcome is SessionOutcome.ABORTED

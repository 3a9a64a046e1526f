"""Probe deadline tests: dead paths, timeouts, engine-mode byte-identity."""

from unittest import mock

import pytest

from repro.core.probe import ProbeEngine, ProbeMode, ProbeTimeout
from repro.core.session import SessionConfig, TransferSession
from repro.http.transfer import TcpParams
from repro.net.trace import CapacityTrace
from repro.sim.errors import TransferError
from repro.sim.simulator import Simulator
from repro.tcp import fluid
from repro.tcp.fluid import FluidNetwork
from repro.util.units import mbps_to_bytes_per_s

FAST_TCP = TcpParams(max_window=262_144.0)

DEAD = CapacityTrace.constant(0.0)

MODES = [ProbeMode.CONCURRENT, ProbeMode.SEQUENTIAL]
SANITIZE = [False, True]  # plain, and every tick checked by the sanitizer


def _race(world, *, mode, deadline, sanitize=False, sparse=False):
    """Run one direct-vs-R1 probe race; returns (sim, outcome-or-timeout).

    ``sparse`` solves every shared problem with ``waterfill_sparse`` instead
    of the plain-float ``maxmin_scalar`` (the same bits, by contract)."""
    sim = Simulator(sanitize=sanitize)
    net = FluidNetwork(sim)
    engine = ProbeEngine(net, tcp=FAST_TCP)
    paths = [world.builder.direct("C", "S"), world.builder.indirect("C", "R1", "S")]
    bound = 0 if sparse else fluid._SCALAR_MAX_FLOWS
    try:
        with mock.patch.object(fluid, "_SCALAR_MAX_FLOWS", bound):
            out = engine.run(paths, "/f", mode=mode, deadline=deadline)
    except ProbeTimeout as timeout:
        return sim, timeout
    return sim, out


def _signature(sim, result):
    """Byte-identity signature of a race outcome (or timeout)."""
    probes = result.probes
    per_probe = tuple(
        (p.label, p.won, p.completed_at, p.throughput, float(p.transfer.flow.delivered))
        for p in probes
    )
    if isinstance(result, ProbeTimeout):
        return ("timeout", result.started_at, result.timed_out_at, per_probe, sim.now)
    return ("decided", result.winner.label, result.started_at, result.decided_at, per_probe, sim.now)


class TestDeadPathRaces:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sanitize", SANITIZE)
    def test_dead_direct_loses(self, mini_world, mode, sanitize):
        w = mini_world(direct_trace=DEAD, relay_mbps={"R1": 4.0})
        sim, out = _race(w, mode=mode, deadline=60.0, sanitize=sanitize)
        assert not isinstance(out, ProbeTimeout)
        assert out.winner.via == "R1"
        dead = next(p for p in out.probes if p.label == "direct")
        assert not dead.won
        assert dead.transfer.flow.delivered == 0.0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sanitize", SANITIZE)
    def test_dead_relay_loses(self, mini_world, mode, sanitize):
        w = mini_world(direct_mbps=1.0, relay_traces={"R1": DEAD})
        sim, out = _race(w, mode=mode, deadline=60.0, sanitize=sanitize)
        assert not isinstance(out, ProbeTimeout)
        assert out.winner.via is None
        dead = next(p for p in out.probes if p.label == "R1")
        assert not dead.won

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("sanitize", SANITIZE)
    def test_all_paths_dead_times_out(self, mini_world, mode, sanitize):
        w = mini_world(direct_trace=DEAD, relay_traces={"R1": DEAD})
        sim, out = _race(w, mode=mode, deadline=30.0, sanitize=sanitize)
        assert isinstance(out, ProbeTimeout)
        assert out.deadline == 30.0
        assert out.started_at <= out.timed_out_at <= out.started_at + 30.0
        assert sim.now <= 30.0 + 1e-9  # bounded simulated time
        assert all(not p.won for p in out.probes)
        assert {p.label for p in out.probes} == {"direct", "R1"}

    @pytest.mark.parametrize("sanitize", SANITIZE)
    def test_dying_paths_time_out_at_the_deadline(self, mini_world, sanitize):
        # Paths that die mid-race but revive far later never freeze the
        # engine, so the race must idle exactly to the deadline.
        rate = mbps_to_bytes_per_s(8.0)
        dying = CapacityTrace([0.0, 0.01, 5000.0], [rate, 0.0, rate])
        w = mini_world(direct_trace=dying, relay_traces={"R1": dying})
        sim, out = _race(w, mode=ProbeMode.CONCURRENT, deadline=10.0, sanitize=sanitize)
        assert isinstance(out, ProbeTimeout)
        assert out.timed_out_at == pytest.approx(out.started_at + 10.0)

    def test_legacy_unbounded_race_still_raises_transfer_error(self, mini_world):
        w = mini_world(direct_trace=DEAD, relay_traces={"R1": DEAD})
        sim, net, _ = w.universe()
        engine = ProbeEngine(net, tcp=FAST_TCP)
        paths = [w.builder.direct("C", "S"), w.builder.indirect("C", "R1", "S")]
        with pytest.raises(TransferError) as excinfo:
            engine.run(paths, "/f")  # no deadline: legacy failure mode
        assert not isinstance(excinfo.value, ProbeTimeout)

    def test_deadline_validation(self, mini_world):
        w = mini_world()
        sim, net, _ = w.universe()
        engine = ProbeEngine(net, tcp=FAST_TCP)
        with pytest.raises(ValueError, match="deadline"):
            engine.run([w.builder.direct("C", "S")], "/f", deadline=0.0)


#: Engine legs of the identity tests: the default solvers, the sparse solve
#: for every shared solve, and the default solvers under the sanitizer
#: (every solve certified).
IDENTITY_LEGS = [
    {},
    {"sparse": True},
    {"sanitize": True},
]


class TestEngineModeIdentity:
    """The same race must be byte-identical on every engine leg."""

    @pytest.mark.parametrize("mode", MODES)
    def test_dead_direct_identical(self, mini_world, mode):
        sigs = []
        for leg in IDENTITY_LEGS:
            w = mini_world(direct_trace=DEAD, relay_mbps={"R1": 4.0})
            sigs.append(_signature(*_race(w, mode=mode, deadline=60.0, **leg)))
        assert sigs[1:] == sigs[:1] * 2

    @pytest.mark.parametrize("mode", MODES)
    def test_dead_relay_identical(self, mini_world, mode):
        sigs = []
        for leg in IDENTITY_LEGS:
            w = mini_world(direct_mbps=1.0, relay_traces={"R1": DEAD})
            sigs.append(_signature(*_race(w, mode=mode, deadline=60.0, **leg)))
        assert sigs[1:] == sigs[:1] * 2

    @pytest.mark.parametrize("mode", MODES)
    def test_all_dead_timeout_identical(self, mini_world, mode):
        sigs = []
        for leg in IDENTITY_LEGS:
            w = mini_world(direct_trace=DEAD, relay_traces={"R1": DEAD})
            sigs.append(_signature(*_race(w, mode=mode, deadline=30.0, **leg)))
        assert sigs[1:] == sigs[:1] * 2


class TestSessionProbeTimeout:
    @pytest.mark.parametrize("sanitize", SANITIZE)
    def test_all_dead_session_aborts(self, mini_world, sanitize):
        from repro.core.resilience import ResilienceConfig, SessionOutcome

        w = mini_world(direct_trace=DEAD, relay_traces={"R1": DEAD})
        config = SessionConfig(
            tcp=FAST_TCP, resilience=ResilienceConfig(probe_deadline=10.0)
        )
        sim = Simulator(sanitize=sanitize)
        net = FluidNetwork(sim)
        session = TransferSession(net, w.builder, config)
        result = session.download("C", "S", "/f", ["R1"])
        assert result.outcome is SessionOutcome.ABORTED
        assert result.bytes_received == 0.0
        assert result.delivered == 0.0
        assert result.selected_via is None
        assert [e.kind for e in result.recovery_events] == ["probe_timeout", "abort"]
        assert result.recovery_events[0].detail == 10.0
        assert result.end_to_end_throughput == 0.0
        assert result.duration <= 10.0 + 1e-9

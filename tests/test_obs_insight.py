"""repro.obs.insight tests: phase decomposition, grouping, tail attribution."""

import math

import pytest

from repro.core.resilience import ResilienceConfig, SessionOutcome
from repro.core.session import SessionConfig, TransferSession
from repro.http.transfer import TcpParams
from repro.net.trace import CapacityTrace
from repro.obs.core import Observer
from repro.obs.export import ObsTrace
from repro.obs.insight import (
    PHASES,
    attribute_trace,
    group_children,
    phase_totals,
    render_insight,
    tail_attribution,
)
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.util.units import mbps_to_bytes_per_s

FAST_TCP = TcpParams(max_window=262_144.0)
RESILIENCE = ResilienceConfig(
    probe_deadline=30.0,
    failover=True,
    check_interval=2.0,
    grace_period=1.0,
    transfer_deadline=600.0,
)
CONFIG = SessionConfig(tcp=FAST_TCP, resilience=RESILIENCE)


def _dies_at(t, mbps=8.0):
    return CapacityTrace([0.0, t], [mbps_to_bytes_per_s(mbps), 0.0])


def _observed_session(world, relays):
    """Run one resilient download under a private observer; return its trace."""
    obs = Observer()
    sim = Simulator(observer=obs)
    net = FluidNetwork(sim)
    session = TransferSession(net, world.builder, CONFIG)
    result = session.download("C", "S", "/f", relays)
    return result, ObsTrace.from_observer(obs)


# --------------------------------------------------------------------- #
# synthetic decompositions (dyadic times: sums must be *exactly* equal)
# --------------------------------------------------------------------- #
class TestDecomposeSynthetic:
    def _trace(self, build):
        obs = Observer()
        build(obs)
        return ObsTrace.from_observer(obs)

    def test_probe_then_transfer_with_gap(self):
        def build(obs):
            obs.span("probe", "probe:direct", 0.0, 0.25, won=True)
            obs.span("transfer", "remainder:direct", 0.5, 2.0, path="direct")
            obs.span("session", "C->S", 0.0, 2.0, outcome="completed")

        sessions = attribute_trace(self._trace(build))
        assert len(sessions) == 1
        s = sessions[0]
        assert s.phases["probe"] == 0.25
        assert s.phases["transfer"] == 1.5
        assert s.phases["other"] == 0.25  # the 0.25..0.5 scheduling gap
        assert math.fsum(s.phases.values()) == s.duration == 2.0

    def test_probe_wins_over_concurrent_transfer(self):
        def build(obs):
            obs.span("probe", "probe:R1", 0.0, 1.0, won=True)
            obs.span("transfer", "full:R1", 0.5, 2.0, path="R1")
            obs.span("session", "C->S", 0.0, 2.0, outcome="completed")

        s = attribute_trace(self._trace(build))[0]
        assert s.phases["probe"] == 1.0  # overlap 0.5..1.0 charged to probe
        assert s.phases["transfer"] == 1.0
        assert math.fsum(s.phases.values()) == 2.0

    def test_stall_and_backoff_events(self):
        def build(obs):
            obs.span("transfer", "attempt:R1", 0.0, 4.0, path="R1")
            obs.span("session", "C->S", 0.0, 8.0, outcome="failed_over")
            # Emitted after the session span, as the real session does.
            obs.event("recovery", "stall", 4.0, path="R1", detail=2.0)
            obs.event("recovery", "backoff", 4.0, path="R1", detail=1.0)

        s = attribute_trace(self._trace(build))[0]
        # Stall covers [2, 4] and outranks the transfer attempt there.
        assert s.phases["stall"] == 2.0
        assert s.phases["transfer"] == 2.0
        assert s.phases["backoff"] == 1.0  # [4, 5]
        assert s.phases["other"] == 3.0  # [5, 8]
        assert math.fsum(s.phases.values()) == 8.0

    def test_probe_after_recovery_is_reprobe(self):
        def build(obs):
            obs.span("probe", "probe:R1", 0.0, 0.5, won=True)
            obs.span("transfer", "attempt:R1", 0.5, 2.0, path="R1")
            obs.span("probe", "probe:R2", 3.0, 3.5, won=True)
            obs.span("transfer", "attempt:R2", 3.5, 6.0, path="R2")
            obs.span("session", "C->S", 0.0, 6.0, outcome="failed_over")
            obs.event("recovery", "stall", 2.0, path="R1", detail=1.0)
            obs.event("recovery", "reprobe", 3.0, path="R1", detail=0.0)

        s = attribute_trace(self._trace(build))[0]
        assert s.phases["probe"] == 0.5
        assert s.phases["reprobe"] == 0.5
        # The stall interval [1, 2] outranks the overlapping first attempt.
        assert s.phases["stall"] == 1.0
        assert s.phases["transfer"] == 3.0
        assert s.phases["other"] == 1.0  # the dead air [2, 3]
        assert math.fsum(s.phases.values()) == 6.0

    def test_stripe_straggle_vs_transfer(self):
        def build(obs):
            # Two lanes overlap on [0, 2]; lane B straggles on [2, 4].
            obs.span("stripe", "block:0", 0.0, 2.0, path="A")
            obs.span("stripe", "block:1", 0.0, 4.0, path="B")
            obs.span(
                "session", "C->S", 0.0, 4.0, outcome="completed", stripe_k=2
            )

        s = attribute_trace(self._trace(build))[0]
        assert s.stripe_k == 2
        assert s.phases["transfer"] == 2.0
        assert s.phases["straggle"] == 2.0
        assert math.fsum(s.phases.values()) == 4.0

    def test_zero_duration_session(self):
        def build(obs):
            obs.span("session", "C->S", 1.0, 1.0, outcome="aborted")

        s = attribute_trace(self._trace(build))[0]
        assert s.duration == 0.0
        assert math.fsum(s.phases.values()) == 0.0

    def test_child_intervals_clipped_to_session(self):
        def build(obs):
            obs.span("transfer", "full:direct", 0.0, 4.0, path="direct")
            obs.span("session", "C->S", 0.0, 3.0, outcome="completed")
            # Stall interval [-1, 1] reaches before the session start.
            obs.event("recovery", "stall", 1.0, path="direct", detail=2.0)

        # The transfer span [0, 4] is not contained in [0, 3]: dropped, so
        # only the clipped stall interval and the residual remain.
        s = attribute_trace(self._trace(build))[0]
        assert s.phases["stall"] == 1.0
        assert s.phases["transfer"] == 0.0
        assert s.phases["other"] == 2.0
        assert math.fsum(s.phases.values()) == 3.0


# --------------------------------------------------------------------- #
# grouping records into sessions
# --------------------------------------------------------------------- #
class TestGrouping:
    def test_two_sessions_on_one_track(self):
        obs = Observer()
        obs.span("transfer", "full:direct", 0.0, 2.0, path="direct")
        obs.span("session", "C->S", 0.0, 2.0, outcome="completed")
        obs.span("probe", "probe:R1", 2.0, 2.5, won=True)
        obs.span("transfer", "remainder:R1", 2.5, 5.0, path="R1")
        obs.span("session", "C->S", 2.0, 5.0, outcome="completed")
        groups = group_children(ObsTrace.from_observer(obs))
        assert len(groups) == 2
        assert [len(kids) for _s, kids in groups] == [1, 2]

    def test_recovery_events_attach_to_preceding_session(self):
        obs = Observer()
        obs.span("transfer", "attempt:R1", 0.0, 2.0, path="R1")
        obs.span("session", "C->S", 0.0, 4.0, outcome="failed_over")
        obs.event("recovery", "stall", 2.0, path="R1", detail=1.0)
        obs.event("recovery", "failover", 2.0, path="R2", detail=0.0)
        obs.span("transfer", "full:direct", 4.0, 6.0, path="direct")
        obs.span("session", "C->S", 4.0, 6.0, outcome="completed")
        groups = group_children(ObsTrace.from_observer(obs))
        assert len(groups) == 2
        first_kinds = sorted(
            (k.kind, k.category) for k in groups[0][1]
        )
        assert first_kinds == [
            ("event", "recovery"),
            ("event", "recovery"),
            ("span", "transfer"),
        ]
        assert len(groups[1][1]) == 1

    def test_non_child_categories_are_dropped(self):
        obs = Observer()
        obs.span("fault", "link:S->C", 0.0, 100.0, family="gray")
        obs.span("tick", "fluid-epoch", 0.0, 1.0, flows=1)
        obs.span("transfer", "full:direct", 0.0, 2.0, path="direct")
        obs.span("session", "C->S", 0.0, 2.0, outcome="completed")
        groups = group_children(ObsTrace.from_observer(obs))
        assert len(groups) == 1
        assert [k.category for k in groups[0][1]] == ["transfer"]

    def test_wallclock_unit_spans_excluded(self):
        worker = Observer(track="worker-1")
        worker.span("transfer", "full:direct", 0.0, 2.0, path="direct")
        worker.span("session", "C->S", 0.0, 2.0, outcome="completed")
        parent = Observer()  # unit span on the worker's track, parent seq
        parent.span("unit", "u0", 0.001, 0.5, track="worker-1", index=0)
        merged = ObsTrace.merge(
            [ObsTrace.from_observer(worker), ObsTrace.from_observer(parent)]
        )
        groups = group_children(merged)
        assert len(groups) == 1
        assert [k.category for k in groups[0][1]] == ["transfer"]

    def test_multi_track_sessions_attributed_independently(self):
        a = Observer(track="worker-1")
        a.span("transfer", "full:direct", 0.0, 2.0, path="direct")
        a.span("session", "C->S", 0.0, 2.0, outcome="completed")
        b = Observer(track="worker-2")
        b.span("transfer", "full:R1", 0.0, 3.0, path="R1")
        b.span("session", "C2->S", 0.0, 3.0, outcome="completed")
        merged = ObsTrace.merge(
            [ObsTrace.from_observer(a), ObsTrace.from_observer(b)]
        )
        sessions = attribute_trace(merged)
        assert [(s.track, s.phases["transfer"]) for s in sessions] == [
            ("worker-1", 2.0),
            ("worker-2", 3.0),
        ]


# --------------------------------------------------------------------- #
# real sessions through the simulator
# --------------------------------------------------------------------- #
class TestRealSessions:
    def test_clean_session_decomposition(self, mini_world):
        world = mini_world(direct_mbps=1.0, relay_mbps={"R1": 8.0})
        result, trace = _observed_session(world, ["R1"])
        assert result.outcome is SessionOutcome.COMPLETED
        sessions = attribute_trace(trace)
        assert len(sessions) == 1
        s = sessions[0]
        assert s.name == "C->S"
        assert s.duration == pytest.approx(result.duration)
        assert math.fsum(s.phases.values()) == pytest.approx(s.duration, abs=1e-9)
        assert s.phases["probe"] > 0.0
        assert s.phases["transfer"] > 0.0
        assert s.phases["stall"] == 0.0

    def test_failover_session_has_stall_phase(self, mini_world):
        world = mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 8.0, "R2": 2.0},
            relay_traces={"R1": _dies_at(2.0)},
        )
        result, trace = _observed_session(world, ["R1", "R2"])
        assert result.outcome is SessionOutcome.FAILED_OVER
        s = attribute_trace(trace)[0]
        assert s.phases["stall"] > 0.0
        assert s.phases["transfer"] > 0.0
        assert math.fsum(s.phases.values()) == pytest.approx(s.duration, abs=1e-9)

    def test_every_phase_nonnegative(self, mini_world):
        world = mini_world(
            direct_mbps=1.0,
            relay_mbps={"R1": 8.0, "R2": 2.0},
            relay_traces={"R1": _dies_at(2.0), "R2": _dies_at(2.0)},
        )
        _result, trace = _observed_session(world, ["R1", "R2"])
        for s in attribute_trace(trace):
            for phase, seconds in s.phases.items():
                assert seconds >= -1e-9, (phase, seconds)


# --------------------------------------------------------------------- #
# aggregation + rendering
# --------------------------------------------------------------------- #
def _mk_session(duration, **phases):
    from repro.obs.insight import SessionPhases

    full = {p: 0.0 for p in PHASES}
    full.update(phases)
    full["other"] = duration - math.fsum(full[p] for p in PHASES if p != "other")
    return SessionPhases(
        name="C->S",
        track="main",
        start=0.0,
        end=duration,
        outcome="completed",
        stripe_k=0,
        phases=full,
    )


class TestAggregation:
    def test_phase_totals_sums_all_sessions(self):
        sessions = [_mk_session(2.0, transfer=2.0), _mk_session(4.0, transfer=3.0)]
        totals = phase_totals(sessions)
        assert totals["transfer"] == 5.0
        assert totals["other"] == 1.0

    def test_tail_attribution_selects_slowest(self):
        fast = [_mk_session(1.0, transfer=1.0) for _ in range(9)]
        slow = _mk_session(10.0, stall=8.0, transfer=2.0)
        tail = tail_attribution(fast + [slow], q=0.95)
        assert tail.n_sessions == 10
        assert tail.n_tail == 1
        assert tail.threshold == 10.0
        assert tail.fractions["stall"] == pytest.approx(0.8)
        assert tail.fractions["transfer"] == pytest.approx(0.2)

    def test_tail_attribution_empty(self):
        tail = tail_attribution([], q=0.99)
        assert tail.n_tail == 0
        assert math.isnan(tail.threshold)

    def test_render_mentions_dominant_phase(self):
        text = render_insight([_mk_session(10.0, stall=8.0, transfer=2.0)])
        assert "critical-path attribution" in text
        assert "stall" in text
        assert "80.0%" in text

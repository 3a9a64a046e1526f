"""Runtime invariant sanitizer tests: wiring, firing, and read-only-ness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tcp.fluid as fluid_mod
from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.qa.sanitize import (
    InvariantViolation,
    Sanitizer,
    Violation,
    sanitize_enabled_from_env,
)
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp


class _Flow:
    """Flow-shaped stub for feeding check_flow_progress directly."""

    def __init__(self, id=1, name="stub", delivered=0.0, size=1000.0, rate=1.0):
        self.id = id
        self.name = name
        self.delivered = delivered
        self.size = size
        self.rate = rate


def contended_world(**sim_kwargs):
    """Two flows over a shared, trace-varying link (a realistic clean run)."""
    sim = Simulator(**sim_kwargs)
    net = FluidNetwork(sim)
    shared = Link(
        "access", "a", "b",
        CapacityTrace([0.0, 5.0], [1000.0, 400.0]), delay=0.01,
    )
    tail = Link("wan", "b", "c", CapacityTrace.constant(800.0), delay=0.02)
    fa = net.start_flow(Route(links=(shared, tail)), 4000.0, name="fa")
    fb = net.start_flow(Route(links=(shared,)), 2500.0, name="fb")
    sim.run()
    return sim, net, fa, fb


class TestWiring:
    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled_from_env()
        assert Simulator().sanitizer is not None

    def test_env_var_falsy_values(self, monkeypatch):
        for value in ("0", "", "off", "no"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize_enabled_from_env()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Simulator().sanitizer is None

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(sanitize=False).sanitizer is None
        monkeypatch.delenv("REPRO_SANITIZE")
        assert Simulator(sanitize=True).sanitizer is not None

    def test_injected_sanitizer_is_used(self):
        sanitizer = Sanitizer(mode="collect")
        assert Simulator(sanitizer=sanitizer).sanitizer is sanitizer

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            Sanitizer(mode="bogus")


class TestEventMonotonicity:
    """QA-R001 fires when an event executes behind the clock."""

    def backdate(self, sim):
        # Bypass schedule_at's guard the way only a kernel bug could.
        sim._queue.push(1.0, lambda: None, name="backdated")

    def test_fires_and_raises(self):
        sim = Simulator(sanitize=True)
        sim.schedule_at(3.0, lambda: self.backdate(sim), name="injector")
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        violation = exc.value.violation
        assert violation.code == "QA-R001"
        assert violation.subject == "backdated"
        assert violation.measured == 1.0 and violation.limit == 3.0

    def test_collect_mode_records_without_raising(self):
        sanitizer = Sanitizer(mode="collect")
        sim = Simulator(sanitizer=sanitizer)
        sim.schedule_at(3.0, lambda: self.backdate(sim), name="injector")
        sim.run()
        assert [v.code for v in sanitizer.violations] == ["QA-R001"]

    def test_nan_event_time_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_event_time(1.0, float("nan"), "nan-event")
        assert [v.code for v in sanitizer.violations] == ["QA-R001"]

    def test_silent_on_ordered_events(self):
        sim = Simulator(sanitize=True)
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(1.0, lambda: None)  # equal times are legal
        sim.schedule_at(2.0, lambda: None)
        sim.run()  # must not raise
        assert sim.sanitizer.checks_run == 3


class TestFlowConservation:
    """QA-R002 fires on byte regressions, over-delivery, and bad rates."""

    def test_delivered_regression_fires(self):
        sanitizer = Sanitizer(mode="collect")
        flow = _Flow(delivered=500.0)
        sanitizer.check_flow_progress(flow, now=1.0)
        flow.delivered = 400.0
        sanitizer.check_flow_progress(flow, now=2.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R002"]
        assert sanitizer.violations[0].measured == 400.0

    def test_overdelivery_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_flow_progress(_Flow(delivered=1500.0, size=1000.0), now=1.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R002"]

    def test_non_finite_rate_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_flow_progress(_Flow(rate=float("nan")), now=0.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R002"]

    def test_forget_flow_resets_baseline(self):
        sanitizer = Sanitizer(mode="collect")
        flow = _Flow(delivered=500.0)
        sanitizer.check_flow_progress(flow, now=1.0)
        sanitizer.forget_flow(flow.id)
        flow.delivered = 100.0  # a *new* flow may reuse the id
        sanitizer.check_flow_progress(flow, now=2.0)
        assert sanitizer.violations == []

    def test_monotone_progress_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        flow = _Flow(delivered=0.0)
        for delivered in (0.0, 250.0, 1000.0):
            flow.delivered = delivered
            sanitizer.check_flow_progress(flow, now=delivered / 100.0)
        assert sanitizer.violations == []


class TestAllocation:
    """QA-R003/QA-R004 validate each installed rate vector."""

    def test_overloaded_link_fires_r004(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_allocation(
            0.0,
            capacities=np.array([100.0]),
            lids=np.array([0, 0]),
            frow=np.array([0, 1]),
            caps=np.array([np.inf, np.inf]),
            rates=np.array([80.0, 80.0]),
            link_names=["access"],
        )
        (violation,) = sanitizer.violations
        assert violation.code == "QA-R004"
        assert violation.subject == "access"
        assert violation.measured == pytest.approx(160.0)
        assert violation.limit == pytest.approx(100.0)

    def test_unfair_but_feasible_fires_r003(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_allocation(
            0.0,
            capacities=np.array([100.0]),
            lids=np.array([0, 0]),
            frow=np.array([0, 1]),
            caps=np.array([np.inf, np.inf]),
            rates=np.array([10.0, 20.0]),  # link idle, flow 0 unbottlenecked
            link_names=["access"],
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R003"]

    def test_true_maxmin_allocation_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_allocation(
            0.0,
            capacities=np.array([100.0]),
            lids=np.array([0, 0]),
            frow=np.array([0, 1]),
            caps=np.array([np.inf, np.inf]),
            rates=np.array([50.0, 50.0]),
            link_names=["access"],
        )
        assert sanitizer.violations == []

    def test_corrupt_engine_allocation_raises_in_run(self, monkeypatch):
        """End to end: a buggy allocator is caught at the first tick."""
        real = fluid_mod.waterfill_sparse

        def triple(*args, **kw):
            rates, rounds = real(*args, **kw)
            return rates * 3.0, rounds

        monkeypatch.setattr(fluid_mod, "waterfill_sparse", triple)
        # Two shared flows: solved by the sparse solve only above the bound.
        monkeypatch.setattr(fluid_mod, "_SCALAR_MAX_FLOWS", 0)
        with pytest.raises(InvariantViolation) as exc:
            contended_world(sanitize=True)
        assert exc.value.violation.code == "QA-R004"

    def test_corrupt_scalar_allocation_raises_in_run(self, monkeypatch):
        """The sanitizer checks the scalar shared solver's rates too."""
        real = fluid_mod.maxmin_scalar

        def halve_first(capacities, flow_links, caps, **kw):
            rates = real(capacities, flow_links, caps, **kw)
            rates[0] *= 0.5
            return rates

        monkeypatch.setattr(fluid_mod, "maxmin_scalar", halve_first)
        with pytest.raises(InvariantViolation) as exc:
            contended_world(sanitize=True)
        assert exc.value.violation.code in ("QA-R003", "QA-R004")


class TestProbeAccounting:
    """QA-R005 validates probe-phase and session bookkeeping."""

    class _Outcome:
        def __init__(self, winner_label="direct", started_at=1.0, decided_at=2.0):
            self.winner = type("P", (), {"label": winner_label})()
            self.probes = ()
            self.started_at = started_at
            self.decided_at = decided_at
            self.probe_bytes = 100_000.0

    def test_decided_before_started_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_probe_outcome(
            self._Outcome(started_at=10.0, decided_at=9.0), ["direct"]
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R005"]

    def test_winner_outside_candidates_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_probe_outcome(
            self._Outcome(winner_label="ghost"), ["direct", "via:R1"]
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R005"]

    def test_healthy_outcome_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_probe_outcome(self._Outcome(), ["direct"])
        assert sanitizer.violations == []


class TestDiagnostics:
    def test_raise_mode_message_carries_code_and_hint(self):
        sanitizer = Sanitizer()  # default mode is raise
        with pytest.raises(InvariantViolation) as exc:
            sanitizer.check_event_time(5.0, 1.0, "bad")
        text = str(exc.value)
        assert "QA-R001" in text and "hint:" in text and "bad" in text

    def test_violation_format_includes_measured_and_limit(self):
        v = Violation(
            code="QA-R004", invariant="link-capacity-respected",
            sim_time=1.5, subject="access", detail="over", measured=2.0, limit=1.0,
        )
        text = v.format()
        assert "t=1.5" in text and "measured=2.0" in text and "limit=1.0" in text

    def test_summary_counts(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_event_time(0.0, 1.0)
        assert sanitizer.summary() == "sanitizer: 1 check(s), 0 violation(s)"


class TestReadOnly:
    """A sanitized run must be byte-identical to an unsanitized one."""

    def test_clean_run_is_silent_and_identical(self):
        _, net_off, fa_off, fb_off = contended_world()
        sim_on, net_on, fa_on, fb_on = contended_world(sanitize=True)
        assert sim_on.sanitizer.violations == []
        assert sim_on.sanitizer.checks_run > 0
        assert net_on.completed_count == net_off.completed_count == 2
        # Exact equality on purpose: observation must not perturb the run.
        assert fa_on.completed_at == fa_off.completed_at
        assert fb_on.completed_at == fb_off.completed_at
        assert fa_on.delivered == fa_off.delivered


class TestSessionResultChecks:
    """QA-R005 post-conditions over the resilient session fields."""

    def _result(self, **overrides):
        from repro.core.session import SessionResult

        kwargs = dict(
            client="C", server="S", resource="/f", size=1000.0,
            offered=("R1",), selected_via="R1",
            requested_at=0.0, completed_at=10.0,
        )
        kwargs.update(overrides)
        return SessionResult(**kwargs)

    def _event(self, time, kind="stall"):
        from repro.core.resilience import RecoveryEvent

        return RecoveryEvent(time=time, kind=kind, path="R1", bytes_received=0.0)

    def test_clean_result_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(
            self._result(
                recovery_events=(self._event(2.0), self._event(3.0, "failover")),
                bytes_received=500.0,
            )
        )
        assert sanitizer.violations == []

    def test_event_outside_session_interval_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(
            self._result(recovery_events=(self._event(99.0),))
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R005"]

    def test_unordered_timeline_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(
            self._result(
                recovery_events=(self._event(5.0), self._event(3.0, "failover"))
            )
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R005"]

    def test_bytes_received_beyond_size_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(self._result(bytes_received=2000.0))
        assert [v.code for v in sanitizer.violations] == ["QA-R005"]


class TestFaultWindowBlackout:
    """QA-R006: no bytes cross a registered blackout during its window."""

    def _check(self, sanitizer, now, *, capacity=0.0, rate=0.0):
        sanitizer.check_allocation(
            now,
            np.array([capacity]),
            np.array([0]),
            np.array([0]),
            np.array([np.inf]),
            np.array([rate]),
            ["wan:site->client"],
        )

    def test_load_during_blackout_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.watch_fault_windows({"wan:site->client": [(10.0, 20.0)]})
        self._check(sanitizer, 15.0, capacity=0.0, rate=5.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R006"]

    def test_capacity_during_blackout_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.watch_fault_windows({"wan:site->client": [(10.0, 20.0)]})
        self._check(sanitizer, 15.0, capacity=900.0, rate=0.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R006"]

    def test_outside_window_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.watch_fault_windows({"wan:site->client": [(10.0, 20.0)]})
        self._check(sanitizer, 20.0, capacity=900.0, rate=900.0)  # end excluded
        self._check(sanitizer, 5.0, capacity=900.0, rate=900.0)
        assert sanitizer.violations == []

    def test_unwatched_link_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.watch_fault_windows({"wan:other": [(0.0, 100.0)]})
        self._check(sanitizer, 15.0, capacity=900.0, rate=900.0)
        assert sanitizer.violations == []

    def test_registrations_accumulate(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.watch_fault_windows({"wan:site->client": [(0.0, 5.0)]})
        sanitizer.watch_fault_windows({"wan:site->client": [(10.0, 20.0)]})
        self._check(sanitizer, 12.0, capacity=0.0, rate=3.0)
        assert [v.code for v in sanitizer.violations] == ["QA-R006"]


class TestRecoveryBytesMonotone:
    """QA-R007: recovery-timeline byte snapshots never regress."""

    def _result(self, events):
        from repro.core.session import SessionResult

        return SessionResult(
            client="C", server="S", resource="/f", size=1.0e6,
            offered=("R1",), selected_via="R1",
            requested_at=0.0, completed_at=100.0,
            recovery_events=events, bytes_received=1.0e6,
        )

    def _event(self, time, kind, received):
        from repro.core.resilience import RecoveryEvent

        return RecoveryEvent(
            time=time, kind=kind, path="R1", bytes_received=received
        )

    def test_regressing_snapshot_fires(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(
            self._result((
                self._event(10.0, "stall", 500_000.0),
                self._event(20.0, "failover", 200_000.0),
            ))
        )
        assert [v.code for v in sanitizer.violations] == ["QA-R007"]

    def test_monotone_timeline_is_silent(self):
        sanitizer = Sanitizer(mode="collect")
        sanitizer.check_session_result(
            self._result((
                self._event(10.0, "stall", 200_000.0),
                self._event(20.0, "failover", 200_000.0),
                self._event(40.0, "reprobe", 700_000.0),
            ))
        )
        assert sanitizer.violations == []


def _race_world(n_clients, *, sim, size=1e6, links=None, seed=0, slots=(0.0, 0.01, 0.05)):
    """A probe race on the vector core: ``n_clients`` race a direct route
    over the access link against a relay route over both links, starting
    at ``slots``; every client's first batch of rows is its direct probe,
    at the direct route's RTT."""
    rng = np.random.default_rng(seed)
    if links is None:
        links = [
            Link("access", "a", "b", CapacityTrace([0.0, 0.3], [4e7, 2e7]), delay=0.01),
            Link("wan", "b", "c", CapacityTrace.constant(3e7), delay=0.02),
        ]
    ramp = SlowStartRamp(rtt=0.06, max_window=65_536.0)
    return FluidNetwork(sim).start_races(
        [Route(links=links[:1]), Route(links=links)], [ramp, ramp],
        [0.5 * size, size, 1.5 * size], probe_bytes=2e4,
        direct=[0] * n_clients, relay=[1] * n_clients,
        size=rng.integers(0, 3, size=n_clients),
        slot=rng.integers(0, len(slots), size=n_clients), slot_times=list(slots),
    )


def _columns(race):
    return (
        race.latency.tobytes(), race.throughput.tobytes(),
        race.indirect.tobytes(), race.probe_overhead_sum, race.n_completed,
    )


class TestVectorCoreChecks:
    """The sanitizer's columnar checks over a race's VectorCore, every tick."""

    def test_clean_race_is_checked_and_silent(self):
        sim = Simulator(sanitizer=Sanitizer(mode="collect"))
        race = _race_world(400, sim=sim)
        sim.run()
        assert race.n_completed == 400
        assert sim.sanitizer.checks_run > 0
        assert sim.sanitizer.violations == []

    @pytest.mark.parametrize("n_rows", [50, 400])
    def test_halved_core_rate_fires_r003_or_r004(self, monkeypatch, n_rows):
        import repro.vec.engine as engine

        real_sparse = engine.waterfill_sparse
        solvers = []

        def sparse(*args, **kw):
            solvers.append("sparse")
            rates, rounds = real_sparse(*args, **kw)
            if rates is not None:
                rates[0] *= 0.5
            return rates, rounds

        monkeypatch.setattr(engine, "waterfill_sparse", sparse)
        sim = Simulator(sanitize=True)
        # One start slot: the first tick solves every client's direct probe.
        _race_world(n_rows, sim=sim, slots=(0.0,))
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert solvers == ["sparse"]
        assert exc.value.violation.code in ("QA-R003", "QA-R004")

    def test_delivered_count_going_down_fires_r002(self):
        sim = Simulator(sanitize=True)
        race = _race_world(400, sim=sim, size=1e9)

        def rewind():
            core = race._core
            core._g_deliv[: core._ng] = 0.0

        sim.schedule_at(0.2, rewind, name="rewind")
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert exc.value.violation.code == "QA-R002"
        assert "decreased" in exc.value.violation.detail

    def test_load_on_a_blackout_link_fires_r006(self, monkeypatch):
        import repro.vec.engine as engine

        real = engine.waterfill_sparse
        sim = Simulator(sanitize=True)

        def leak(*args, **kw):
            rates, rounds = real(*args, **kw)
            if rates is not None and sim.now >= 0.3:
                rates = rates + 1.0
            return rates, rounds

        monkeypatch.setattr(engine, "waterfill_sparse", leak)
        access = Link(
            "access", "a", "b", CapacityTrace([0.0, 0.3], [4e7, 0.0]), delay=0.01
        )
        wan = Link("wan", "b", "c", CapacityTrace.constant(3e7), delay=0.02)
        sim.sanitizer.watch_fault_windows({"access": [(0.3, 10.0)]})
        _race_world(400, sim=sim, size=1e9, links=[access, wan])
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert exc.value.violation.code == "QA-R006"
        assert exc.value.violation.subject == "access"

    @settings(max_examples=10, deadline=None)
    @given(
        n_clients=st.sampled_from([383, 384, 385]),
        seed=st.integers(0, 2**16),
        size=st.sampled_from([2e4, 1e5, 3e5]),
    )
    def test_sanitized_and_plain_runs_match_at_the_window_edge(
        self, n_clients, seed, size
    ):
        def run(sanitize):
            sim = Simulator(sanitize=sanitize)
            race = _race_world(
                n_clients, sim=sim, size=size, seed=seed, slots=(0.0,)
            )
            sim.run()
            return _columns(race), sim.now

        plain = run(False)
        assert run(True) == plain

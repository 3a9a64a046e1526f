"""Blackout fault-window modelling and failure-masking study tests."""

import numpy as np
import pytest

from repro.analysis.availability import masking_stats
from repro.chaos.faults import degraded_seconds, plan_spans
from repro.net import failures
from repro.net.failures import (
    FaultWindow,
    OutageGenerator,
    apply_fault_windows,
    blackout_spans,
)
from repro.net.topology import wan_link_name
from repro.net.trace import CapacityTrace
from repro.qa.sanitize import InvariantViolation
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.failures import FailureStudyParams, plan_failures, run_failure_unit


class TestOutage:
    def test_end(self):
        assert FaultWindow(10.0, 5.0).end == 15.0

    def test_overlaps(self):
        o = FaultWindow(10.0, 5.0)
        assert o.overlaps(12.0, 20.0)
        assert o.overlaps(0.0, 11.0)
        assert not o.overlaps(15.0, 20.0)  # half-open
        assert not o.overlaps(0.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(-1.0, 5.0)
        with pytest.raises(ValueError):
            FaultWindow(1.0, -0.5)
        # Zero-length windows are legal degenerate no-ops: fault-plan
        # arithmetic (clipping to a horizon, duty cycles) produces them.
        assert FaultWindow(1.0, 0.0).end == 1.0


class TestApplyOutages:
    def test_zeroes_capacity_during_outage(self):
        t = apply_fault_windows(CapacityTrace.constant(100.0), [FaultWindow(10.0, 5.0)])
        assert t.value_at(9.9) == 100.0
        assert t.value_at(10.0) == 0.0
        assert t.value_at(14.9) == 0.0
        assert t.value_at(15.0) == 100.0

    def test_no_outages_returns_same_trace(self):
        base = CapacityTrace.constant(1.0)
        assert apply_fault_windows(base, []) is base

    def test_resumes_underlying_value(self):
        base = CapacityTrace([0.0, 12.0], [100.0, 200.0])
        t = apply_fault_windows(base, [FaultWindow(10.0, 5.0)])
        assert t.value_at(15.0) == 200.0  # capacity changed during the outage

    def test_swallows_interior_breakpoints(self):
        base = CapacityTrace([0.0, 11.0, 12.0], [100.0, 150.0, 200.0])
        t = apply_fault_windows(base, [FaultWindow(10.0, 5.0)])
        assert not any(10.0 < b < 15.0 for b in t.times)
        assert float(np.max(t.values_at([10.0, 11.0, 12.0, 14.999]))) == 0.0
        assert t.value_at(11.5) == 0.0

    def test_multiple_outages(self):
        t = apply_fault_windows(
            CapacityTrace.constant(50.0), [FaultWindow(10.0, 2.0), FaultWindow(20.0, 3.0)]
        )
        assert t.value_at(11.0) == 0.0
        assert t.value_at(15.0) == 50.0
        assert t.value_at(21.0) == 0.0
        assert t.value_at(23.0) == 50.0

    def test_overlapping_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            apply_fault_windows(
                CapacityTrace.constant(1.0), [FaultWindow(10.0, 5.0), FaultWindow(12.0, 5.0)]
            )

    def test_outage_past_trace_end(self):
        t = apply_fault_windows(CapacityTrace.constant(7.0), [FaultWindow(100.0, 10.0)])
        assert t.value_at(105.0) == 0.0
        assert t.value_at(110.0) == 7.0

    def test_integral_accounts_for_downtime(self):
        t = apply_fault_windows(CapacityTrace.constant(10.0), [FaultWindow(5.0, 5.0)])
        assert t.integrate(0.0, 20.0) == pytest.approx(150.0)


class TestOutageGenerator:
    def test_non_overlapping(self):
        gen = OutageGenerator(mtbf=100.0, mean_duration=20.0)
        outages = gen.sample(50_000.0, np.random.default_rng(0))
        for a, b in zip(outages, outages[1:]):
            assert b.start >= a.end

    def test_availability(self):
        gen = OutageGenerator(mtbf=900.0, mean_duration=100.0)
        assert gen.availability == pytest.approx(0.9)

    def test_empirical_downtime_matches_availability(self):
        gen = OutageGenerator(mtbf=100.0, mean_duration=25.0)
        horizon = 200_000.0
        outages = gen.sample(horizon, np.random.default_rng(1))
        down = degraded_seconds(plan_spans({"L": outages}), 0.0, horizon)
        assert down / horizon == pytest.approx(1 - gen.availability, abs=0.04)

    def test_deterministic(self):
        gen = OutageGenerator(mtbf=100.0, mean_duration=10.0)
        a = gen.sample(1000.0, np.random.default_rng(3))
        b = gen.sample(1000.0, np.random.default_rng(3))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            OutageGenerator(mtbf=0.0, mean_duration=1.0)


class TestScenarioWithOutages:
    def test_original_untouched(self, section2_scenario):
        link_name = wan_link_name("eBay", "Italy")
        before = section2_scenario.topology.link(link_name).trace
        degraded = section2_scenario.with_faults(
            {link_name: [FaultWindow(0.0, 100.0)]}
        )
        assert section2_scenario.topology.link(link_name).trace is before
        assert degraded.topology.link(link_name).trace.value_at(50.0) == 0.0

    def test_only_planned_links_are_rebuilt(self, section2_scenario, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        italy = wan_link_name("eBay", "Italy")
        sweden = wan_link_name("eBay", "Sweden")
        plan = {
            italy: [FaultWindow(10.0, 20.0)],
            sweden: [FaultWindow(30.0, 5.0, factor=0.5)],
        }
        parent = section2_scenario.topology
        faulted = section2_scenario.with_faults(plan)
        assert [l.name for l in faulted.topology.links] == [l.name for l in parent.links]
        for link in faulted.topology.links:
            if link.name in plan:
                assert link is not parent.link(link.name)
                expected = apply_fault_windows(parent.link(link.name).trace, plan[link.name])
                assert link.trace.times.tobytes() == expected.times.tobytes()
                assert link.trace.values.tobytes() == expected.values.tobytes()
            else:
                assert link is parent.link(link.name)
        # A derived copy shares its faulted parent's links in turn, and the
        # blackout spans still accumulate across the two plans.
        again = faulted.with_faults({italy: [FaultWindow(0.0, 5.0)]})
        assert again.topology.link(sweden) is faulted.topology.link(sweden)
        assert again.topology.link(italy).trace.value_at(2.0) == 0.0
        assert again.topology.link(italy).trace.value_at(20.0) == 0.0
        assert again.universe(0.0).sim.sanitizer.fault_windows == {
            italy: [(0.0, 5.0), (10.0, 30.0)]
        }

    def test_unknown_link_rejected(self, section2_scenario):
        with pytest.raises(KeyError, match="unknown links"):
            section2_scenario.with_faults({"wan:Narnia->Italy": [FaultWindow(0.0, 1.0)]})

    def test_transfer_stalls_through_outage(self, section2_scenario):
        """A direct transfer started just before an outage waits it out."""
        link_name = wan_link_name("eBay", "Italy")
        degraded = section2_scenario.with_faults(
            {link_name: [FaultWindow(5.0, 120.0)]}
        )
        healthy = section2_scenario.universe(0.0)
        h = healthy.session.download_direct("Italy", "eBay", section2_scenario.resource)
        sick = degraded.universe(0.0)
        s = sick.session.download_direct("Italy", "eBay", degraded.resource)
        assert s.duration >= h.duration + 100.0


ITALY = wan_link_name("eBay", "Italy")
SWEDEN = wan_link_name("eBay", "Sweden")


class TestFaultedUniversesArmTheSanitizer:
    """Every sanitized universe on a faulted scenario polices its blackouts."""

    PLAN = {
        ITALY: [FaultWindow(10.0, 20.0), FaultWindow(50.0, 5.0, factor=0.5)],
        SWEDEN: [FaultWindow(30.0, 10.0, factor=0.25)],
    }

    def test_exactly_the_plan_blackouts_are_registered(
        self, section2_scenario, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        faulted = section2_scenario.with_faults(self.PLAN)
        sanitizer = faulted.universe(0.0).sim.sanitizer
        assert sanitizer.fault_windows == blackout_spans(self.PLAN)
        # The gray windows (and Sweden, which has only gray) stay unpoliced.
        assert sanitizer.fault_windows == {ITALY: [(10.0, 30.0)]}
        # The healthy parent scenario polices nothing.
        assert section2_scenario.universe(0.0).sim.sanitizer.fault_windows == {}

    def test_derived_scenario_accumulates_parent_blackouts(
        self, section2_scenario, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        faulted = section2_scenario.with_faults(self.PLAN).with_faults(
            {ITALY: [FaultWindow(0.0, 5.0)], SWEDEN: [FaultWindow(60.0, 5.0)]}
        )
        sanitizer = faulted.universe(0.0).sim.sanitizer
        assert sanitizer.fault_windows == {
            ITALY: [(0.0, 5.0), (10.0, 30.0)],
            SWEDEN: [(60.0, 65.0)],
        }

    def test_sabotaged_rewrite_trips_qa_r006_in_a_failure_unit(
        self, section2_scenario, monkeypatch
    ):
        """Plan dark, trace live: the failures study must not run unchecked."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setattr(failures, "apply_fault_windows", lambda trace, _w: trace)
        plan = plan_failures(
            section2_scenario,
            repetitions=4,
            interval=360.0,
            params=FailureStudyParams(link_mtbf=60.0, link_mean_duration=600.0),
            clients=["Italy"],
            modes=("link",),
        )
        with pytest.raises(InvariantViolation) as exc:
            for unit in plan.units:
                run_failure_unit(section2_scenario, plan.config, unit, plan.extra)
        assert exc.value.violation.code == "QA-R006"
        assert exc.value.violation.subject == ITALY


class TestFailureMasking:
    """Direct-link outages only, under the paper's plain (no-failover) protocol."""

    @pytest.fixture(scope="class")
    def records(self, section2_scenario):
        plan = plan_failures(
            section2_scenario,
            repetitions=12,
            interval=360.0,
            config=STUDY_SESSION_CONFIG,
            params=FailureStudyParams(link_mtbf=500.0, link_mean_duration=150.0),
            clients=["Italy", "Sweden", "Korea"],
            modes=("link",),
        )
        return [
            run_failure_unit(section2_scenario, plan.config, u, plan.extra)
            for u in plan.units
        ]

    def test_record_count(self, records):
        assert len(records) == 36
        assert {r.failure_mode for r in records} == {"link"}

    def test_some_transfers_affected(self, records):
        affected = [r for r in records if r.outage_overlap]
        assert len(affected) >= 3  # heavy outage regime must bite sometimes

    def test_masking_occurs(self, records):
        """The probe mechanism masks a solid share of failures (MONET-style)."""
        stats = masking_stats(records)
        assert stats.n_affected >= 3
        assert stats.masking_rate >= 0.4
        assert stats.mean_affected_speedup > 1.0

    def test_unaffected_transfers_not_inflated(self, records):
        clean = [r for r in records if not r.outage_overlap]
        ratios = [r.speedup for r in clean]
        assert np.median(ratios) >= 0.5  # selector never pathologically slower

"""Failure-layer extension tests: outage edge cases, node crashes, records,
availability analysis and the runner-integrated failure study."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.analysis.availability import (
    availability_by_mode,
    availability_stats,
    goodput_under_failure,
    masking_stats,
    recovery_times,
    render_availability,
)
from repro.chaos.faults import degraded_seconds, plan_spans
from repro.core.resilience import RecoveryEvent, ResilienceConfig
from repro.net.failures import (
    FaultWindow,
    apply_fault_windows,
    merge_outage_plans,
    node_outage_plan,
    node_wan_links,
)
from repro.net.trace import CapacityTrace
from repro.trace.records import FailureRecord, TransferRecord
from repro.trace.store import TraceStore
from repro.workloads.failures import (
    FAILURE_MODES,
    FAILURES_SESSION_CONFIG,
    FailureStudyParams,
    failure_outage_plan,
    plan_failures,
    run_failure_unit,
)


def _zero_measure(trace: CapacityTrace, t0: float, t1: float) -> float:
    """Lebesgue measure of {t in [t0, t1] : trace(t) == 0}."""
    times = list(trace.times) + [max(t1, trace.times[-1])]
    down = 0.0
    for start, value, end in zip(trace.times, trace.values, times[1:]):
        if value == 0.0:
            down += max(0.0, min(end, t1) - max(start, t0))
    if trace.values[-1] == 0.0 and t1 > times[-1]:
        down += t1 - times[-1]
    return down


def _no_redundant_breakpoints(trace: CapacityTrace) -> bool:
    times, values = trace.times, trace.values
    strictly_increasing = all(a < b for a, b in zip(times, times[1:]))
    no_value_repeats = all(a != b for a, b in zip(values, values[1:]))
    return strictly_increasing and no_value_repeats


class TestApplyOutagesEdgeCases:
    def test_back_to_back_outages_share_one_zero_region(self):
        t = apply_fault_windows(
            CapacityTrace.constant(100.0), [FaultWindow(5.0, 5.0), FaultWindow(10.0, 5.0)]
        )
        assert list(t.times) == [0.0, 5.0, 15.0]
        assert list(t.values) == [100.0, 0.0, 100.0]
        assert _no_redundant_breakpoints(t)

    def test_outage_at_last_breakpoint(self):
        base = CapacityTrace([0.0, 10.0], [100.0, 50.0])
        t = apply_fault_windows(base, [FaultWindow(10.0, 5.0)])
        assert t.value_at(9.9) == 100.0
        assert t.value_at(12.0) == 0.0
        assert t.value_at(15.0) == 50.0
        assert _no_redundant_breakpoints(t)

    def test_outage_after_last_breakpoint(self):
        base = CapacityTrace([0.0, 10.0], [100.0, 50.0])
        t = apply_fault_windows(base, [FaultWindow(20.0, 5.0)])
        assert t.value_at(22.0) == 0.0
        assert t.value_at(25.0) == 50.0
        assert _no_redundant_breakpoints(t)

    def test_resume_into_zero_coalesces(self):
        # The underlying trace is already 0 when the outage ends: the resume
        # breakpoint would repeat the value and must be dropped.
        base = CapacityTrace([0.0, 6.0], [100.0, 0.0])
        t = apply_fault_windows(base, [FaultWindow(5.0, 3.0)])
        assert list(t.times) == [0.0, 5.0]
        assert list(t.values) == [100.0, 0.0]

    def test_downtime_property(self):
        """The plan's span measure == zero-capacity measure of the rewrite."""
        rng = np.random.default_rng(20260806)
        horizon = 1000.0
        for _ in range(50):
            n = int(rng.integers(1, 6))
            times = [0.0] + sorted(rng.uniform(1.0, horizon, size=n - 1).tolist())
            values = rng.uniform(1.0, 10.0, size=n).tolist()  # strictly positive
            base = CapacityTrace(times, values)
            outages, t = [], float(rng.uniform(0.0, 100.0))
            while t < 0.8 * horizon and len(outages) < 8:
                duration = float(rng.uniform(1.0, 60.0))
                outages.append(FaultWindow(t, duration))
                t += duration + float(rng.uniform(1.0, 120.0))
            rewritten = apply_fault_windows(base, outages)
            expected = degraded_seconds(plan_spans({"L": outages}), 0.0, horizon)
            assert _zero_measure(rewritten, 0.0, horizon) == pytest.approx(expected)
            assert _no_redundant_breakpoints(rewritten)


class TestNodeFailures:
    def test_node_wan_links_excludes_access(self, mini_world):
        w = mini_world(relay_mbps={"R1": 2.0, "R2": 3.0})
        names = node_wan_links(w.topology.links, "R1")
        assert set(names) == {"wan:S->R1", "wan:R1->C"}

    def test_empty_node_name_rejected(self, mini_world):
        w = mini_world()
        with pytest.raises(ValueError):
            node_wan_links(w.topology.links, "")

    def test_node_outage_plan_covers_all_segments(self, mini_world):
        w = mini_world(relay_mbps={"R1": 2.0, "R2": 3.0})
        outages = [FaultWindow(10.0, 5.0)]
        plan = node_outage_plan(w.topology.links, "R1", outages)
        assert set(plan) == {"wan:S->R1", "wan:R1->C"}
        assert all(plan[name] == outages for name in plan)

    def test_unknown_node_rejected(self, mini_world):
        w = mini_world()
        with pytest.raises(ValueError, match="no WAN links"):
            node_outage_plan(w.topology.links, "Narnia", [FaultWindow(0.0, 1.0)])

    def test_merge_fuses_overlapping(self):
        merged = merge_outage_plans(
            {"L": [FaultWindow(0.0, 10.0)]},
            {"L": [FaultWindow(5.0, 10.0)], "M": [FaultWindow(1.0, 2.0)]},
        )
        assert merged["L"] == [FaultWindow(0.0, 15.0)]
        assert merged["M"] == [FaultWindow(1.0, 2.0)]

    def test_merge_fuses_touching_and_contained(self):
        merged = merge_outage_plans(
            {"L": [FaultWindow(0.0, 5.0), FaultWindow(5.0, 5.0), FaultWindow(2.0, 3.0)]}
        )
        assert merged["L"] == [FaultWindow(0.0, 10.0)]

    def test_merged_plan_is_applicable(self):
        # The merge output must satisfy apply_fault_windows' no-overlap
        # contract.
        merged = merge_outage_plans(
            {"L": [FaultWindow(0.0, 10.0), FaultWindow(30.0, 5.0)]},
            {"L": [FaultWindow(8.0, 10.0)]},
        )
        apply_fault_windows(CapacityTrace.constant(1.0), merged["L"])  # must not raise

    def test_merge_rejects_gray_window(self):
        # Fusing a gray window with a blackout would silently change the
        # fault; the merge only unions blackouts.
        with pytest.raises(ValueError, match="gray"):
            merge_outage_plans(
                {"L": [FaultWindow(0.0, 10.0)]},
                {"L": [FaultWindow(5.0, 10.0, factor=0.5)]},
            )


class TestDegenerateStats:
    """S1: degenerate divisions report NaN, never raise."""

    def test_speedup_nan_on_zero_durations(self):
        zero_sel = _failure_record(outage_overlap=True, selected_duration=0.0)
        zero_ctrl = _failure_record(outage_overlap=True, direct_duration=0.0)
        assert math.isnan(zero_sel.speedup)
        assert math.isnan(zero_ctrl.speedup)
        # A NaN speedup still counts as affected but stays out of the mean.
        stats = masking_stats([zero_sel, _failure_record(outage_overlap=True)])
        assert (stats.n_affected, stats.n_masked) == (2, 2)
        assert stats.mean_affected_speedup == pytest.approx(2.0)

    def test_masking_rate_nan_without_affected(self):
        stats = masking_stats([_failure_record()])
        assert (stats.n_transfers, stats.n_affected) == (1, 0)
        assert math.isnan(stats.masking_rate)
        assert math.isnan(stats.mean_affected_speedup)
        assert math.isnan(masking_stats([]).masking_rate)


def _failure_record(**overrides):
    kwargs = dict(
        study="failures",
        client="Italy",
        site="eBay",
        repetition=0,
        start_time=0.0,
        set_size=2,
        offered=("R1", "R2"),
        selected_via="R1",
        direct_throughput=1e5,
        selected_throughput=2e5,
        end_to_end_throughput=1.8e5,
        probe_overhead=1.0,
        file_bytes=4e6,
        failure_mode="node",
        outcome="completed",
        direct_outcome="completed",
        n_failovers=0,
        n_reprobes=0,
        bytes_received=4e6,
        direct_duration=40.0,
        selected_duration=20.0,
        time_to_recover=math.nan,
        outage_overlap=False,
        recovery_events=(),
    )
    kwargs.update(overrides)
    return FailureRecord(**kwargs)


class TestFailureRecord:
    def test_round_trip_with_events(self):
        events = (
            RecoveryEvent(time=5.0, kind="stall", path="R1", bytes_received=1e5, detail=4.0),
            RecoveryEvent(time=6.0, kind="failover", path="R2", bytes_received=1e5),
        )
        rec = _failure_record(
            outcome="failed_over",
            n_failovers=1,
            time_to_recover=5.0,
            recovery_events=events,
        )
        d = rec.to_dict()
        assert d["record_type"] == "failure"
        assert TransferRecord.from_dict(d) == rec

    def test_nan_ttr_survives_round_trip(self):
        back = TransferRecord.from_dict(_failure_record().to_dict())
        assert math.isnan(back.time_to_recover)

    def test_plain_records_stay_tag_free(self):
        store_row = {
            "study": "section2", "client": "Italy", "site": "eBay",
            "repetition": 0, "start_time": 0.0, "set_size": 1,
            "offered": ["R1"], "selected_via": "R1",
            "direct_throughput": 1e5, "selected_throughput": 2e5,
            "end_to_end_throughput": 1.8e5, "probe_overhead": 1.0,
            "file_bytes": 4e6,
        }
        rec = TransferRecord.from_dict(dict(store_row))
        assert type(rec) is TransferRecord
        assert "record_type" not in rec.to_dict()

    def test_unknown_tag_rejected(self):
        d = _failure_record().to_dict()
        d["record_type"] = "mystery"
        with pytest.raises(ValueError, match="unknown record_type"):
            TransferRecord.from_dict(d)

    def test_outcome_predicates(self):
        assert _failure_record(outcome="aborted").aborted
        assert _failure_record(outcome="failed_over").recovered
        clean = _failure_record()
        assert not clean.aborted and not clean.recovered

    def test_zero_throughput_is_legal(self):
        rec = _failure_record(
            outcome="aborted", selected_throughput=0.0, bytes_received=0.0
        )
        assert rec.aborted

    def test_store_round_trip(self, tmp_path):
        store = TraceStore()
        store.append(
            _failure_record(
                outcome="failed_over",
                time_to_recover=5.0,
                recovery_events=(
                    RecoveryEvent(time=5.0, kind="stall", path="R1", bytes_received=1e5),
                ),
            )
        )
        path = tmp_path / "failures.jsonl"
        store.save_jsonl(path)
        loaded = TraceStore.load_jsonl(path)
        assert loaded.records == store.records
        assert isinstance(loaded.records[0], FailureRecord)


class TestAvailabilityAnalysis:
    def _records(self):
        return [
            _failure_record(failure_mode="none"),
            _failure_record(
                failure_mode="node",
                outcome="failed_over",
                n_failovers=1,
                time_to_recover=6.0,
                selected_duration=50.0,
                outage_overlap=True,
            ),
            _failure_record(
                failure_mode="both",
                outcome="aborted",
                bytes_received=1e6,
                selected_duration=100.0,
                outage_overlap=True,
            ),
        ]

    def test_counts_and_ratios(self):
        stats = availability_stats(self._records())
        assert (stats.n_sessions, stats.n_completed, stats.n_failed_over,
                stats.n_aborted) == (3, 1, 1, 1)
        assert stats.availability == pytest.approx(2.0 / 3.0)
        assert stats.recovery_rate == pytest.approx(0.5)
        assert stats.mean_ttr == pytest.approx(6.0)
        assert stats.byte_unavailability == pytest.approx(3e6 / 12e6)

    def test_goodput_under_failure(self):
        values = goodput_under_failure(self._records())
        assert values == [pytest.approx(4e6 / 50.0), pytest.approx(1e6 / 100.0)]
        assert recovery_times(self._records()) == [6.0]

    def test_zero_duration_goodput_is_zero(self):
        rec = _failure_record(
            outcome="aborted", selected_duration=0.0, bytes_received=0.0,
            outage_overlap=True,
        )
        assert goodput_under_failure([rec]) == [0.0]

    def test_empty_input_is_all_nan(self):
        stats = availability_stats([])
        assert stats.n_sessions == 0
        for name in ("availability", "recovery_rate", "mean_ttr", "median_ttr",
                     "p95_ttr", "mean_goodput_under_failure", "byte_unavailability"):
            assert math.isnan(getattr(stats, name))

    def test_by_mode_first_occurrence_order(self):
        by_mode = availability_by_mode(self._records())
        assert list(by_mode) == ["none", "node", "both"]
        assert by_mode["both"].n_aborted == 1

    def test_render_handles_empty_and_full(self):
        assert "n/a" in render_availability([])
        text = render_availability(self._records())
        assert "Availability study" in text
        assert "failed over 1" in text
        for mode in ("none", "node", "both"):
            assert mode in text


class TestFailurePlan:
    def test_variant_cycles_modes(self, section2_scenario):
        plan = plan_failures(
            section2_scenario, repetitions=8, interval=360.0, clients=["Italy"]
        )
        assert len(plan.units) == 8
        assert [u.variant for u in plan.units] == list(FAILURE_MODES) * 2
        assert all(len(u.offered) == 2 for u in plan.units)

    def test_variant_changes_unit_id(self, section2_scenario):
        plan = plan_failures(
            section2_scenario, repetitions=4, interval=360.0, clients=["Italy"]
        )
        unit = plan.units[0]
        assert dataclasses.replace(unit, variant="both").unit_id != unit.unit_id
        assert dataclasses.replace(unit, variant=None).unit_id != unit.unit_id

    def test_params_change_fingerprint(self, section2_scenario):
        base = plan_failures(
            section2_scenario, repetitions=4, interval=360.0, clients=["Italy"]
        )
        tweaked = plan_failures(
            section2_scenario,
            repetitions=4,
            interval=360.0,
            clients=["Italy"],
            params=FailureStudyParams(link_mtbf=450.0),
        )
        assert base.fingerprint() != tweaked.fingerprint()
        assert base.fingerprint() == plan_failures(
            section2_scenario, repetitions=4, interval=360.0, clients=["Italy"]
        ).fingerprint()

    def test_default_resilience_keeps_legacy_fingerprint(self, section2_scenario):
        from repro.runner.plan import CampaignPlan
        from repro.workloads.studies import STUDY_SESSION_CONFIG

        explicit_default = dataclasses.replace(
            STUDY_SESSION_CONFIG, resilience=ResilienceConfig()
        )
        mk = lambda config: CampaignPlan(
            study="s",
            scenario_spec=section2_scenario.spec,
            seed=section2_scenario.bank.root_seed,
            config=config,
            units=(),
        )
        assert mk(STUDY_SESSION_CONFIG).fingerprint() == mk(explicit_default).fingerprint()
        resilient = dataclasses.replace(
            STUDY_SESSION_CONFIG, resilience=ResilienceConfig(failover=True)
        )
        assert mk(STUDY_SESSION_CONFIG).fingerprint() != mk(resilient).fingerprint()

    @pytest.mark.parametrize("modes", [(), ("link", "meteor")])
    def test_modes_must_be_known_and_non_empty(self, section2_scenario, modes):
        with pytest.raises(ValueError, match="modes must be a non-empty selection"):
            plan_failures(
                section2_scenario, repetitions=4, interval=360.0, modes=modes
            )

    def test_outage_plan_is_mode_gated(self, section2_scenario):
        params = FailureStudyParams()
        relay = section2_scenario.relay_names[0]
        kwargs = dict(client="Italy", site="eBay", relay=relay)
        none = failure_outage_plan(section2_scenario, params, mode="none", **kwargs)
        assert none == {}
        node = failure_outage_plan(section2_scenario, params, mode="node", **kwargs)
        assert node and all(relay in name for name in node)
        with pytest.raises(ValueError, match="unknown failure mode"):
            failure_outage_plan(section2_scenario, params, mode="meteor", **kwargs)


class TestRunFailureUnits:
    @pytest.fixture(scope="class")
    def small_plan(self, section2_scenario):
        return plan_failures(
            section2_scenario, repetitions=4, interval=360.0, clients=["Italy"]
        )

    def test_unit_execution_is_deterministic(self, section2_scenario, small_plan):
        unit = small_plan.units[2]  # the node-crash variant
        first = run_failure_unit(
            section2_scenario, FAILURES_SESSION_CONFIG, unit, small_plan.extra
        )
        second = run_failure_unit(
            section2_scenario, FAILURES_SESSION_CONFIG, unit, small_plan.extra
        )
        # JSON text comparison: NaN fields (an unrecovered session's
        # time-to-recover) would fail a plain dict equality.
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        assert first.failure_mode == "node"

    def test_jobs_do_not_change_artefacts(self, section2_scenario, small_plan):
        from repro.runner.pool import execute_plan

        inline = execute_plan(small_plan, jobs=1, scenario=section2_scenario)
        workers = execute_plan(small_plan, jobs=2)
        rows = lambda result: [json.dumps(r.to_dict()) for r in result.store.records]
        assert rows(inline) == rows(workers)
        assert all(isinstance(r, FailureRecord) for r in inline.store.records)

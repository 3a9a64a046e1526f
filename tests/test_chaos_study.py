"""Chaos study tests: planner, records, determinism, kill/resume fuzz.

The campaign here is deliberately tiny (one client, one repetition slot,
two fault cells) because the parallel cases spawn real worker processes
and the fuzz cases SIGKILL them mid-campaign.  Byte identity is asserted
on the serialised JSONL, the strongest form of the determinism contract.
"""

import math

import pytest

from repro.analysis.chaos import (
    chaos_cells as analysis_cells,
    mechanism_separation,
    render_chaos,
)
from repro.chaos.runner import RunnerFaultPlan
from repro.core.resilience import RecoveryEvent
from repro.runner.pool import execute_plan, run_unit
from repro.trace.records import ChaosRecord, TransferRecord
from repro.trace.store import TraceStore
from repro.workloads.chaos import (
    ChaosStudyParams,
    chaos_cells,
    chaos_fault_plan,
    parse_chaos_variant,
    plan_chaos,
)
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG

FAMILIES = ("none", "gray")
INTENSITIES = ("mild",)


@pytest.fixture(scope="module")
def plan(section2_scenario):
    return plan_chaos(
        section2_scenario,
        repetitions=1,
        interval=360.0,
        k=3,
        families=FAMILIES,
        intensities=INTENSITIES,
        config=RESILIENT_SESSION_CONFIG,
        clients=["Italy"],
    )


@pytest.fixture(scope="module")
def serial_store(plan, section2_scenario) -> TraceStore:
    return execute_plan(plan, jobs=1, scenario=section2_scenario).store


def store_bytes(tmp_path, store: TraceStore, name: str) -> bytes:
    path = tmp_path / name
    store.save_jsonl(path)
    return path.read_bytes()


class TestChaosRecord:
    def _record(self, **overrides):
        base = dict(
            study="chaos",
            client="Italy",
            site="eBay",
            repetition=0,
            start_time=0.0,
            set_size=2,
            offered=("R1", "R2"),
            selected_via="R1",
            direct_throughput=100_000.0,
            selected_throughput=200_000.0,
            end_to_end_throughput=150_000.0,
            probe_overhead=1.0,
            file_bytes=4_000_000.0,
            mechanism="failover",
            fault_family="gray",
            intensity="severe",
            stripe_k=3,
            bytes_received=4_000_000.0,
            direct_duration=40.0,
            selected_duration=26.7,
        )
        base.update(overrides)
        return ChaosRecord(**base)

    def test_round_trip_via_registry(self):
        rec = self._record(
            n_failovers=1,
            time_to_recover=12.5,
            fault_downtime=200.0,
            fault_overlap=True,
            recovery_events=(
                RecoveryEvent(
                    time=11.0, kind="stall", path="R1", bytes_received=1e6
                ),
                RecoveryEvent(
                    time=23.5, kind="failover", path="R2",
                    bytes_received=1e6, detail=12.5,
                ),
            ),
        )
        d = rec.to_dict()
        assert d["record_type"] == "chaos"
        back = TransferRecord.from_dict(d)
        assert isinstance(back, ChaosRecord)
        assert back == rec

    def test_properties(self):
        rec = self._record()
        assert rec.available and not rec.aborted
        assert rec.delivered_fraction == 1.0
        assert rec.speedup == pytest.approx(40.0 / 26.7)
        partial = self._record(outcome="aborted", bytes_received=1_000_000.0)
        assert partial.aborted and not partial.available
        assert partial.delivered_fraction == 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match="mechanism"):
            self._record(mechanism="prayer")
        with pytest.raises(ValueError, match="fault_downtime"):
            self._record(fault_downtime=-1.0)


class TestPlanner:
    def test_cell_grid(self):
        cells = chaos_cells(("none", "gray", "flap"), ("mild", "severe"))
        assert cells == [
            ("none", "mild"),
            ("gray", "mild"),
            ("gray", "severe"),
            ("flap", "mild"),
            ("flap", "severe"),
        ]
        with pytest.raises(ValueError, match="unknown fault families"):
            chaos_cells(("meteor",), ("mild",))

    def test_variant_round_trip(self):
        assert parse_chaos_variant("stripe+correlated:mild") == (
            "stripe", "correlated", "mild",
        )
        for bad in ("stripe", "stripe+gray", "prayer+gray:mild", "stripe+gray:x"):
            with pytest.raises(ValueError):
                parse_chaos_variant(bad)

    def test_plan_shape(self, plan):
        # 2 cells (none collapses) x 3 mechanisms x 1 client x 1 rep.
        assert len(plan.units) == 6
        variants = {u.variant for u in plan.units}
        assert variants == {
            "select+none:mild", "failover+none:mild", "stripe+none:mild",
            "select+gray:mild", "failover+gray:mild", "stripe+gray:mild",
        }
        # Every arm of one slot sees the same offered relays.
        offered = {u.offered for u in plan.units}
        assert len(offered) == 1

    def test_fault_plan_mechanism_independent(self, plan, section2_scenario):
        # The fault environment is a function of the cell, not the arm:
        # identical draws for every mechanism sharing (family, intensity).
        params = ChaosStudyParams()
        unit = next(u for u in plan.units if u.variant == "select+gray:mild")
        plans = [
            chaos_fault_plan(
                section2_scenario,
                params,
                client=unit.client,
                site=unit.site,
                offered=unit.offered,
                family="gray",
                intensity="mild",
                repetition=unit.repetition,
                start_time=unit.start_time,
            )
            for _ in range(2)
        ]
        assert plans[0] == plans[1]
        assert all(ws for ws in plans[0].values())

    def test_run_unit_dispatch(self, plan, section2_scenario):
        unit = next(u for u in plan.units if u.variant == "failover+gray:mild")
        rec = run_unit(section2_scenario, RESILIENT_SESSION_CONFIG, unit, plan.extra)
        assert isinstance(rec, ChaosRecord)
        assert rec.mechanism == "failover"
        assert rec.fault_family == "gray"
        assert rec.intensity == "mild"
        assert rec.fault_overlap  # onset lands inside the session by design


class TestDeterminism:
    def test_jobs_2_byte_identical(self, tmp_path, plan, serial_store):
        parallel = execute_plan(plan, jobs=2).store
        assert store_bytes(tmp_path, parallel, "j2.jsonl") == store_bytes(
            tmp_path, serial_store, "j1.jsonl"
        )

    def test_worker_kills_byte_identical(self, tmp_path, plan, serial_store):
        # Satellite fuzz: SIGKILL workers at seeded points mid-campaign;
        # the dead-worker sweep requeues, respawns, and the artefact must
        # not change by a byte.
        result = execute_plan(
            plan,
            jobs=2,
            runner_faults=RunnerFaultPlan(kill_after=(1, 3)),
        )
        assert store_bytes(tmp_path, result.store, "killed.jsonl") == store_bytes(
            tmp_path, serial_store, "clean.jsonl"
        )

    def test_kill_interrupt_corrupt_then_resume_identical(
        self, tmp_path, plan, serial_store
    ):
        # The full gauntlet: kill a worker, stop the campaign early, then
        # corrupt a flushed shard on disk.  Resume must quarantine the
        # damaged shard (structured, non-fatal), re-execute its units, and
        # still merge byte-identically.
        ckpt = tmp_path / "ck"
        partial = execute_plan(
            plan,
            jobs=2,
            checkpoint=ckpt,
            checkpoint_every=1,
            max_units=4,
            runner_faults=RunnerFaultPlan(kill_after=(2,)),
        )
        assert partial.store is None
        shards = sorted((ckpt / "shards").glob("shard-*.jsonl"))
        assert shards
        victim = shards[0]
        lines = victim.read_text(encoding="utf-8").strip("\n").split("\n")
        lines[0] = "<<disk fault>>"
        extra = "\n".join(lines + ["{} trailing torn"])
        victim.write_text(extra + "\n", encoding="utf-8")
        resumed = execute_plan(plan, jobs=2, checkpoint=ckpt, resume=True)
        assert resumed.store is not None
        assert list((ckpt / "shards").glob("*.quarantined*"))
        assert store_bytes(tmp_path, resumed.store, "resumed.jsonl") == store_bytes(
            tmp_path, serial_store, "clean2.jsonl"
        )

    def test_runner_faults_require_workers(self, plan, section2_scenario):
        with pytest.raises(ValueError, match="jobs > 1"):
            execute_plan(
                plan,
                jobs=1,
                scenario=section2_scenario,
                runner_faults=RunnerFaultPlan(kill_after=(1,)),
            )


class TestRunnerFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunnerFaultPlan(kill_after=())
        with pytest.raises(ValueError):
            RunnerFaultPlan(kill_after=(0,))

    def test_injector_fires_in_order_once(self):
        injector = RunnerFaultPlan(kill_after=(2, 4)).injector()
        assert injector.victim(0, [1, 2]) is None
        assert injector.victim(1, [1, 2]) is None
        first = injector.victim(2, [1, 2])
        assert first in (1, 2)
        assert injector.victim(2, [1, 2]) is None  # consumed
        assert injector.victim(4, [7]) == 7
        assert injector.victim(99, [7]) is None  # plan exhausted
        assert injector.kills == [(2, first), (4, 7)]

    def test_no_victim_without_workers(self):
        injector = RunnerFaultPlan(kill_after=(1,)).injector()
        assert injector.victim(5, []) is None
        assert injector.kills == []


class TestAnalysis:
    def test_cells_and_separation(self, serial_store):
        records = serial_store.records
        cells = analysis_cells(records)
        assert ("gray", "mild", "failover") in cells
        baseline = cells[("none", "mild", "select")]
        assert baseline.goodput_retained == pytest.approx(1.0)
        faulted = cells[("gray", "mild", "select")]
        assert faulted.n == 1
        assert 0.0 <= faulted.availability <= 1.0
        assert {
            mech for fam, inten, mech in cells if (fam, inten) == ("gray", "mild")
        } == {"select", "failover", "stripe"}
        sep = mechanism_separation(records)
        d_avail, d_p99 = sep[("gray", "mild")]
        assert math.isfinite(d_avail) or math.isfinite(d_p99)

    def test_render_smoke(self, serial_store):
        text = render_chaos(serial_store.records)
        assert "chaos resilience study" in text
        assert "gray" in text

    def test_empty_inputs_never_raise(self):
        assert analysis_cells([]) == {}
        assert mechanism_separation([]) == {}
        assert "rows: 0" in render_chaos([])

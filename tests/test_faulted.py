"""The shared fault-study unit: record base, arm runner, resilient config.

The three fault studies (``failures``, ``mhttp``, ``chaos``) write rows that
subclass :class:`FaultedRecord` and run their units through
:func:`repro.workloads.faulted.run_arm`.  These tests pin what that sharing
must not change: the wire format of every subclass (round trips, and the
quick studies' artefact digests, run in-process) - and what it adds: the
availability bit on every fault row, which ``repro obs slo`` reads.
"""

import dataclasses
import hashlib
import math

import pytest

from repro.cli import main
from repro.core.resilience import RecoveryEvent
from repro.obs.slo import SloObjective, SloSpec, evaluate_slo
from repro.trace.records import (
    _RECORD_TYPES,
    ChaosRecord,
    FailureRecord,
    FaultedRecord,
    StripeRecord,
    TransferRecord,
)
from repro.trace.store import TraceStore
from repro.workloads.chaos import CHAOS_SESSION_CONFIG, ChaosStudyParams
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG, StripeArmParams
from repro.workloads.mhttp import MhttpStudyParams
from repro.workloads.studies import STUDY_SESSION_CONFIG

#: sha256 of each quick study's serial artefact: the digests the CI
#: study-determinism job pins for the same commands.
QUICK_DIGESTS = {
    "failures": "5c5733cc5f3462b9678a6997e64dd753489d725d99f08528dec27fb57cddaf6f",
    "mhttp": "eda499420c22e728bb019fbdb7b1d09d8c7ae90d9456ea45ceb8bbd7b9a74b71",
    "chaos": "648f497fe5642d9d9cde89f2ee948830cae27b25b68133b58aa35d1d9d7bc274",
}

EVENTS = (
    RecoveryEvent(time=5.0, kind="stall", path="R1", bytes_received=1e5, detail=4.0),
    RecoveryEvent(time=6.0, kind="failover", path="R2", bytes_received=1e5),
)


def _columns(**overrides):
    base = dict(
        study="x",
        client="Italy",
        site="eBay",
        repetition=1,
        start_time=360.0,
        set_size=2,
        offered=("R1", "R2"),
        selected_via="R2",
        direct_throughput=100_000.0,
        selected_throughput=200_000.0,
        end_to_end_throughput=180_000.0,
        probe_overhead=1.5,
        file_bytes=4_000_000.0,
        outcome="failed_over",
        direct_outcome="completed",
        bytes_received=4_000_000.0,
        direct_duration=40.0,
        selected_duration=20.0,
        recovery_events=EVENTS,
    )
    base.update(overrides)
    return base


#: One populated row of every FaultedRecord subclass.
ROWS = {
    "failure": FailureRecord(
        **_columns(), failure_mode="node", n_failovers=1, time_to_recover=5.0
    ),
    "stripe": StripeRecord(
        **_columns(selected_via=None, outcome="degraded"),
        mechanism="stripe",
        stripe_k=3,
        block_bytes=524_288.0,
        n_blocks=8,
        wasted_bytes=300_000.0,
        n_path_failures=1,
        bytes_by_path=(("direct", 1_500_000.0), ("R1", 2_500_000.0)),
    ),
    "chaos": ChaosRecord(
        **_columns(),
        mechanism="failover",
        fault_family="gray",
        intensity="severe",
        stripe_k=3,
        n_failovers=1,
        time_to_recover=1.0,
        fault_downtime=12.5,
        fault_overlap=True,
    ),
}


class TestFaultedRecord:
    def test_base_is_not_a_registered_tag(self):
        assert FaultedRecord not in _RECORD_TYPES.values()
        assert "RECORD_TYPE" not in vars(FaultedRecord)

    def test_every_fault_row_subclasses_the_base(self):
        for tag, rec in ROWS.items():
            assert isinstance(rec, FaultedRecord)
            assert _RECORD_TYPES[tag] is type(rec)

    @pytest.mark.parametrize("tag", sorted(ROWS))
    def test_round_trip(self, tag):
        rec = ROWS[tag]
        d = rec.to_dict()
        assert d["record_type"] == tag
        assert d["recovery_events"] == [e.to_dict() for e in EVENTS]
        back = TransferRecord.from_dict(d)
        assert type(back) is type(rec)
        assert back == rec

    @pytest.mark.parametrize("tag", sorted(ROWS))
    def test_round_trip_through_a_store(self, tag, tmp_path):
        path = tmp_path / "rows.jsonl"
        TraceStore([ROWS[tag]]).save_jsonl(path)
        assert TraceStore.load_jsonl(path).records == [ROWS[tag]]

    @pytest.mark.parametrize("tag", sorted(ROWS))
    def test_aborted_rows_may_carry_zeros(self, tag):
        rec = dataclasses.replace(
            ROWS[tag],
            outcome="aborted",
            selected_via=None,
            direct_throughput=0.0,
            selected_throughput=0.0,
            bytes_received=1_000_000.0,
            selected_duration=0.0,
        )
        assert rec.aborted and not rec.available
        assert rec.delivered_fraction == pytest.approx(0.25)
        assert math.isnan(rec.speedup)

    @pytest.mark.parametrize("tag", sorted(ROWS))
    def test_shared_checks(self, tag):
        with pytest.raises(ValueError, match="selected_throughput"):
            dataclasses.replace(ROWS[tag], selected_throughput=-1.0)
        with pytest.raises(ValueError, match="not in offered set"):
            dataclasses.replace(ROWS[tag], selected_via="R9")

    @pytest.mark.parametrize("tag", sorted(ROWS))
    def test_derived_properties(self, tag):
        rec = ROWS[tag]
        assert rec.available
        assert rec.delivered_fraction == 1.0
        assert rec.speedup == pytest.approx(2.0)
        assert dataclasses.replace(rec, file_bytes=0.0).delivered_fraction == 0.0


class TestSharedConfig:
    def test_resilient_session_config(self):
        res = RESILIENT_SESSION_CONFIG.resilience
        assert (res.probe_deadline, res.failover, res.transfer_deadline) == (
            30.0,
            True,
            1800.0,
        )
        assert RESILIENT_SESSION_CONFIG.tcp == STUDY_SESSION_CONFIG.tcp

    def test_chaos_alias_is_the_shared_config(self):
        assert CHAOS_SESSION_CONFIG is RESILIENT_SESSION_CONFIG

    def test_stripe_arm_params_are_shared(self):
        for params in (MhttpStudyParams(), ChaosStudyParams()):
            assert isinstance(params, StripeArmParams)
            assert params.stripe_config() == StripeArmParams().stripe_config()

    @pytest.mark.parametrize("cls", [MhttpStudyParams, ChaosStudyParams])
    def test_stripe_geometry_checked_at_plan_time(self, cls):
        with pytest.raises(ValueError, match="window"):
            cls(window=0)
        with pytest.raises(ValueError, match="transfer_deadline"):
            cls(transfer_deadline=0.0)


@pytest.fixture(scope="module")
def quick_artefacts(tmp_path_factory):
    """Each fault study's ``--quick`` artefact, written in-process, serially."""
    out = tmp_path_factory.mktemp("quick")
    paths = {}
    for study in QUICK_DIGESTS:
        paths[study] = out / f"{study}.jsonl"
        assert main([study, "--quick", "--jobs", "1", "--out", str(paths[study])]) == 0
    return paths


class TestQuickStudies:
    @pytest.mark.parametrize("study", sorted(QUICK_DIGESTS))
    def test_artefact_digest_is_pinned(self, study, quick_artefacts):
        digest = hashlib.sha256(quick_artefacts[study].read_bytes()).hexdigest()
        assert digest == QUICK_DIGESTS[study]

    @pytest.mark.parametrize("mechanism", ["select", "stripe"])
    def test_slo_measures_mhttp_availability(self, mechanism, quick_artefacts):
        records = TraceStore.load_jsonl(quick_artefacts["mhttp"]).records
        objective = SloObjective(
            name="avail",
            metric="availability",
            min_value=0.9,
            filters={"mechanism": mechanism},
        )
        spec = SloSpec(name="mhttp", description="", objectives=(objective,))
        (result,) = evaluate_slo(spec, records=records).results
        assert result.measured == 1.0
        assert result.passed
        assert result.detail == "4 rows"

    @pytest.mark.parametrize("study", ["failures", "mhttp"])
    def test_committed_spec_passes(self, study, quick_artefacts, capsys):
        rc = main(
            [
                "obs",
                "slo",
                f"specs/{study}-quick.slo.toml",
                "--records",
                str(quick_artefacts[study]),
            ]
        )
        assert rc == 0, capsys.readouterr().out

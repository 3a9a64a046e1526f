"""Counterfactual runner and prediction-quality analysis tests."""

import math

import pytest

from repro.analysis.prediction import prediction_quality
from repro.analysis.variability import variability_reduction
from repro.workloads.counterfactual import (
    CounterfactualRecord,
    run_counterfactual_study,
    run_counterfactual_transfer,
)


def make_record(direct=100.0, indirect=150.0, selected_via="R", selected=None):
    if selected is None:
        selected = indirect if selected_via else direct
    return CounterfactualRecord(
        client="c",
        site="eBay",
        relay="R",
        repetition=0,
        start_time=0.0,
        direct_throughput=direct,
        indirect_throughput=indirect,
        selected_via=selected_via,
        selected_throughput=selected,
        probe_overhead=1.0,
    )


class TestCounterfactualRecord:
    def test_best_via_indirect(self):
        assert make_record(direct=100, indirect=150).best_via == "R"

    def test_best_via_direct(self):
        assert make_record(direct=150, indirect=100).best_via is None

    def test_decision_correct(self):
        assert make_record(direct=100, indirect=150, selected_via="R").decision_correct
        assert not make_record(direct=150, indirect=100, selected_via="R").decision_correct

    def test_regret_zero_when_correct(self):
        r = make_record(direct=100, indirect=150, selected_via="R", selected=150)
        assert r.regret == pytest.approx(0.0)

    def test_regret_positive_when_wrong(self):
        r = make_record(direct=150, indirect=100, selected_via="R", selected=100)
        assert r.regret == pytest.approx((150 - 100) / 150)

    def test_achievable_improvement(self):
        r = make_record(direct=100, indirect=150)
        assert r.achievable_improvement == pytest.approx(0.5)
        r2 = make_record(direct=150, indirect=100)
        assert r2.achievable_improvement == pytest.approx(0.0)


class TestPredictionQuality:
    def test_empty(self):
        q = prediction_quality([])
        assert q.n_transfers == 0
        assert math.isnan(q.accuracy)

    def test_perfect_decisions(self):
        recs = [
            make_record(direct=100, indirect=150, selected_via="R", selected=150),
            make_record(direct=150, indirect=100, selected_via=None, selected=150),
        ]
        q = prediction_quality(recs)
        assert q.accuracy == 1.0
        assert q.mean_regret == pytest.approx(0.0)
        assert q.capture_ratio == pytest.approx(1.0)

    def test_wrong_decisions_counted(self):
        recs = [
            make_record(direct=150, indirect=100, selected_via="R", selected=100),
        ]
        q = prediction_quality(recs)
        assert q.accuracy == 0.0
        assert q.mean_regret > 0.0
        assert q.realised_mean_improvement < 0.0

    def test_capture_ratio_nan_without_oracle_gain(self):
        recs = [make_record(direct=150, indirect=100, selected_via=None, selected=150)]
        assert math.isnan(prediction_quality(recs).capture_ratio)


class TestOnScenario:
    def test_single_counterfactual(self, section2_scenario):
        rec = run_counterfactual_transfer(
            section2_scenario, client="Italy", site="eBay", relay="Texas"
        )
        assert rec.direct_throughput > 0
        assert rec.indirect_throughput > 0
        assert rec.selected_via in (None, "Texas")
        # The selector achieved roughly the throughput of whichever full
        # transfer it matched (bulk phases align up to probe-window shift).
        target = (
            rec.indirect_throughput if rec.selected_via else rec.direct_throughput
        )
        assert rec.selected_throughput == pytest.approx(target, rel=0.35)

    def test_deterministic(self, section2_scenario):
        kw = dict(client="Italy", site="eBay", relay="Texas")
        a = run_counterfactual_transfer(section2_scenario, **kw)
        b = run_counterfactual_transfer(section2_scenario, **kw)
        assert a == b

    def test_study_quality_bands(self, section2_scenario):
        recs = run_counterfactual_study(
            section2_scenario,
            clients=["Italy", "Sweden", "Korea", "Brazil"],
            repetitions=10,
        )
        q = prediction_quality(recs)
        assert q.n_transfers == 40
        # The 100 KB probe is a good-but-imperfect predictor (the paper's
        # entire penalty narrative): high accuracy, modest regret.
        assert 0.6 <= q.accuracy <= 1.0
        assert q.mean_regret <= 0.25
        # The mechanism captures a solid share of the oracle's improvement.
        if not math.isnan(q.capture_ratio):
            assert q.capture_ratio >= 0.4


class TestVariabilityReduction:
    @pytest.fixture(scope="class")
    def static_relay_store(self, section2_scenario):
        """A static-relay campaign (same good relay every transfer).

        The §6 variability claim is about a client using a consistent
        indirect option; relay *rotation* (used for Table II) adds variance
        from relay heterogeneity and would confound the comparison.
        """
        from repro.trace.store import TraceStore
        from repro.workloads.experiment import run_paired_transfer

        store = TraceStore()
        for client in ("Italy", "Sweden", "Korea", "Brazil", "Denmark", "France"):
            relay = section2_scenario.good_static_relay(client)
            for j in range(14):
                store.append(
                    run_paired_transfer(
                        section2_scenario,
                        study="static",
                        client=client,
                        site="eBay",
                        repetition=j,
                        start_time=j * 360.0,
                        offered=[relay],
                    )
                )
        return store

    def test_on_static_campaign(self, static_relay_store):
        comps = variability_reduction(static_relay_store)
        assert len(comps) == 6
        # Paper §6: indirect routing decreases throughput variability - the
        # majority of clients see a lower CV with a stable relay option.
        reduced = sum(1 for c in comps.values() if c.cv_reduced)
        assert reduced >= 0.5 * len(comps)
        # And the throughput floor (10th percentile) never collapses.
        for c in comps.values():
            assert c.selected_p10 >= 0.5 * c.direct_p10

    def test_synthetic_dip_clipping(self):
        """Selection escaping direct-path dips lowers CV mechanically."""
        from repro.trace.records import TransferRecord
        from repro.trace.store import TraceStore

        rows = []
        for i in range(20):
            dipped = i % 4 == 0
            direct = 40_000.0 if dipped else 120_000.0
            selected = 110_000.0 if dipped else direct  # escape via relay
            rows.append(
                TransferRecord(
                    study="t", client="X", site="eBay", repetition=i,
                    start_time=float(i), set_size=1, offered=("R",),
                    selected_via="R" if dipped else None,
                    direct_throughput=direct,
                    selected_throughput=selected,
                    end_to_end_throughput=selected,
                    probe_overhead=0.5, file_bytes=1e6,
                )
            )
        comps = variability_reduction(TraceStore(rows))
        assert comps["X"].cv_reduced
        assert comps["X"].floor_raised
        assert comps["X"].cv_reduction_percent > 30.0

    def test_min_transfers_filter(self, section2_store):
        comps = variability_reduction(section2_store, min_transfers=10**6)
        assert comps == {}

    def test_explicit_clients(self, section2_store):
        comps = variability_reduction(section2_store, clients=["Italy"])
        assert set(comps) <= {"Italy"}

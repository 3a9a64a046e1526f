"""Integration tests: whole-stack behaviour, determinism, baseline ordering."""

import numpy as np
import pytest

from repro.analysis.metrics import headline_stats, indirect_utilization
from repro.core.oracle import OracleBestRelayPolicy
from repro.core.policy import SelectionPolicy
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.weighted import UtilizationWeightedPolicy
from repro.trace.store import TraceStore
from repro.workloads.experiment import (
    Section2Study,
    Section4Study,
)
from repro.workloads.scenario import Scenario, ScenarioSpec


# Baselines for the ordering checks.  ``policy.name`` is the class name and
# labels each client's candidate stream, so these names fix the draws.
class DirectOnlyPolicy(SelectionPolicy):
    """Never offers a relay: the control client."""

    def candidates(self, client, server, full_set, rng, *, now=0.0):
        return []


class SingleRandomRelayPolicy(SelectionPolicy):
    """One uniformly random relay per transfer."""

    def candidates(self, client, server, full_set, rng, *, now=0.0):
        if not full_set:
            return []
        return [str(rng.choice(list(full_set)))]


class TestDeterminism:
    def test_full_campaign_reproducible(self, section2_scenario):
        study = Section2Study(section2_scenario, repetitions=3)
        a = study.run(sites=["eBay"], clients=["Italy", "Korea"])
        b = study.run(sites=["eBay"], clients=["Italy", "Korea"])
        assert a.records == b.records

    def test_clients_independent_of_each_other(self, section2_scenario):
        """Running Italy alone gives the same rows as running it with others."""
        study = Section2Study(section2_scenario, repetitions=3)
        alone = study.run(sites=["eBay"], clients=["Italy"])
        together = study.run(sites=["eBay"], clients=["Korea", "Italy"])
        italy_rows = together.filter(client="Italy").records
        assert italy_rows == alone.records

    def test_section4_policy_streams_reproducible(self, section4_scenario):
        study = Section4Study(section4_scenario, repetitions=4)
        a = study.run_policy(UniformRandomSetPolicy(3), clients=["Duke"])
        b = study.run_policy(UniformRandomSetPolicy(3), clients=["Duke"])
        assert a.records == b.records


class TestAccountingConsistency:
    def test_throughputs_are_physical(self, section2_store, section2_scenario):
        file_bytes = section2_scenario.spec.file_bytes
        for r in section2_store:
            assert 0 < r.direct_throughput < 100e6  # < 800 Mbps, sane
            assert 0 < r.selected_throughput < 100e6
            assert r.file_bytes == file_bytes

    def test_probe_overhead_only_with_offers(self, section2_store):
        for r in section2_store:
            if r.set_size > 0:
                assert r.probe_overhead > 0.0

    def test_end_to_end_tracks_bulk_throughput(self, section2_store):
        # The two throughput views can diverge (capacity may shift between
        # the probe and bulk phases) but must stay within a sane factor.
        for r in section2_store:
            ratio = r.end_to_end_throughput / r.selected_throughput
            assert 0.2 <= ratio <= 5.0

    def test_direct_classes_consistent_per_client(self, section2_store):
        for client, sub in section2_store.group_by("client").items():
            assert len(set(sub.column("direct_class"))) == 1


class TestBaselineOrdering:
    """More candidates / better policies produce at least as much benefit."""

    @pytest.fixture(scope="class")
    def policy_results(self, section4_scenario):
        study = Section4Study(section4_scenario, repetitions=25)
        out = {}
        out["direct"] = study.run_policy(DirectOnlyPolicy(), clients=["Duke"])
        out["random1"] = study.run_policy(SingleRandomRelayPolicy(), clients=["Duke"])
        out["uniform8"] = study.run_policy(UniformRandomSetPolicy(8), clients=["Duke"])
        out["oracle"] = study.run_policy(
            OracleBestRelayPolicy(section4_scenario.builder, "eBay"),
            clients=["Duke"],
        )
        return out

    @staticmethod
    def mean_improvement(store: TraceStore) -> float:
        return float(np.mean(store.column("improvement_percent")))

    def test_direct_only_has_zero_utilization(self, policy_results):
        assert indirect_utilization(policy_results["direct"]) == 0.0

    def test_probing_beats_direct_only(self, policy_results):
        assert self.mean_improvement(policy_results["uniform8"]) > self.mean_improvement(
            policy_results["direct"]
        )

    def test_more_candidates_beat_one_random(self, policy_results):
        assert (
            self.mean_improvement(policy_results["uniform8"])
            >= self.mean_improvement(policy_results["random1"]) - 3.0
        )

    def test_oracle_with_one_candidate_is_strong(self, policy_results):
        # The oracle offers a single relay yet rivals an 8-relay random set.
        assert (
            self.mean_improvement(policy_results["oracle"])
            >= self.mean_improvement(policy_results["random1"])
        )

    def test_probe_mechanism_never_catastrophic(self, policy_results):
        # Mean improvement of any probing policy stays well above -100%.
        for name in ("random1", "uniform8", "oracle"):
            assert self.mean_improvement(policy_results[name]) > -20.0


class TestWeightedLearning:
    def test_weighted_policy_learns_good_relays(self, section4_scenario):
        study = Section4Study(section4_scenario, repetitions=40)
        uniform = study.run_policy(UniformRandomSetPolicy(4), clients=["Duke"])
        weighted = study.run_policy(
            UtilizationWeightedPolicy(4), clients=["Duke"], study="weighted"
        )
        mu = float(np.mean(uniform.column("improvement_percent")))
        mw = float(np.mean(weighted.column("improvement_percent")))
        # The paper's §6 expectation: weighting by utilisation should not
        # hurt, and typically helps once the counters warm up.
        assert mw >= mu - 8.0


class TestHeadlineBands:
    def test_paper_section6_numbers(self, section2_store):
        h = headline_stats(section2_store)
        assert 0.30 <= h.utilization <= 0.60           # paper: 45%
        assert 0.75 <= h.positive_given_indirect <= 1.0  # paper: 88%
        assert 0.25 <= h.effective_benefit_rate <= 0.55  # paper: ~40%

    def test_multi_site_band(self):
        # A tiny multi-site campaign: every site's mean improvement is
        # positive and within a broad band around the paper's 33-49%.
        sc = Scenario.build(
            ScenarioSpec.section2(sites=("eBay", "Google")), seed=77
        )
        study = Section2Study(sc, repetitions=6)
        store = study.run(clients=sc.client_names[:10])
        from repro.analysis.metrics import mean_improvement_by_site

        by_site = mean_improvement_by_site(store)
        for site, imp in by_site.items():
            assert 5.0 <= imp <= 110.0


class TestPersistenceAtScale:
    def test_campaign_round_trip(self, section2_store, tmp_path):
        section2_store.save_jsonl(tmp_path / "c.jsonl")
        loaded = TraceStore.load_jsonl(tmp_path / "c.jsonl")
        assert loaded.records == section2_store.records

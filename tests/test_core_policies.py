"""Selection policy tests: candidate set construction and feedback."""

import numpy as np
import pytest

from repro.core.oracle import OracleBestRelayPolicy
from repro.core.random_set import UniformRandomSetPolicy
from repro.core.weighted import UtilizationWeightedPolicy

FULL = [f"R{i}" for i in range(10)]


def rng(seed=0):
    return np.random.default_rng(seed)


class TestUniformRandomSet:
    def test_size_k(self):
        got = UniformRandomSetPolicy(4).candidates("c", "s", FULL, rng())
        assert len(got) == 4
        assert len(set(got)) == 4
        assert all(r in FULL for r in got)

    def test_k_larger_than_full_set(self):
        got = UniformRandomSetPolicy(99).candidates("c", "s", FULL, rng())
        assert sorted(got) == sorted(FULL)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            UniformRandomSetPolicy(0)

    def test_uniformity(self):
        p = UniformRandomSetPolicy(1)
        g = rng(42)
        counts = {r: 0 for r in FULL}
        for _ in range(4000):
            counts[p.candidates("c", "s", FULL, g)[0]] += 1
        freqs = np.array(list(counts.values())) / 4000
        assert np.all(np.abs(freqs - 0.1) < 0.03)

    def test_name_mentions_k(self):
        assert "7" in UniformRandomSetPolicy(7).name


class TestUtilizationWeighted:
    def test_initial_uniform(self):
        p = UtilizationWeightedPolicy(3)
        for r in FULL:
            assert p.weight("c", r) == pytest.approx(0.5)  # alpha/beta

    def test_observe_raises_for_foreign_choice(self):
        p = UtilizationWeightedPolicy(2)
        with pytest.raises(ValueError, match="not in the offered set"):
            p.observe("c", "s", ["R1"], "R2")

    def test_wins_increase_weight(self):
        p = UtilizationWeightedPolicy(2)
        p.observe("c", "s", ["R1", "R2"], "R1")
        assert p.weight("c", "R1") > p.weight("c", "R2")

    def test_direct_selection_counts_offer_only(self):
        p = UtilizationWeightedPolicy(2)
        p.observe("c", "s", ["R1"], None)
        assert p.weight("c", "R1") < 0.5  # offer without win lowers weight

    def test_utilization_nan_before_offers(self):
        p = UtilizationWeightedPolicy(2)
        assert np.isnan(p.utilization("c", "R1"))

    def test_utilization_ratio(self):
        p = UtilizationWeightedPolicy(2)
        p.observe("c", "s", ["R1"], "R1")
        p.observe("c", "s", ["R1"], None)
        assert p.utilization("c", "R1") == pytest.approx(0.5)

    def test_per_client_isolation(self):
        p = UtilizationWeightedPolicy(2)
        p.observe("c1", "s", ["R1"], "R1")
        assert p.weight("c2", "R1") == pytest.approx(0.5)

    def test_learning_concentrates_sampling(self):
        p = UtilizationWeightedPolicy(2)
        g = rng(1)
        # R0 always wins when offered.
        for _ in range(60):
            offered = p.candidates("c", "s", FULL, g)
            chosen = "R0" if "R0" in offered else None
            p.observe("c", "s", offered, chosen)
        counts = {r: 0 for r in FULL}
        for _ in range(600):
            for r in p.candidates("c", "s", FULL, g):
                counts[r] += 1
        assert counts["R0"] > max(c for r, c in counts.items() if r != "R0")

    def test_candidates_k_bounded(self):
        p = UtilizationWeightedPolicy(20)
        assert len(p.candidates("c", "s", FULL, rng())) == len(FULL)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            UtilizationWeightedPolicy(0)
        with pytest.raises(ValueError):
            UtilizationWeightedPolicy(2, alpha=0.0)


class TestOracle:
    def test_oracle_picks_best_relay(self, mini_world):
        w = mini_world(direct_mbps=1.0, relay_mbps={"R1": 1.0, "R2": 5.0, "R3": 2.0})
        policy = OracleBestRelayPolicy(w.builder, "S")
        got = policy.candidates("C", "S", w.relays, rng())
        assert got == ["R2"]

    def test_oracle_empty_full_set(self, mini_world):
        w = mini_world()
        policy = OracleBestRelayPolicy(w.builder, "S")
        assert policy.candidates("C", "S", [], rng()) == []

"""Study driver tests (small-scale runs over the session fixtures)."""

import numpy as np
import pytest

from repro.core.policy import SelectionPolicy
from repro.core.random_set import UniformRandomSetPolicy
from repro.runner.plan import section2_relay_rotation
from repro.workloads.experiment import (
    Section2Study,
    Section4Study,
    run_paired_transfer,
)


class TestRunPairedTransfer:
    def test_record_fields(self, section2_scenario):
        rec = run_paired_transfer(
            section2_scenario,
            study="t",
            client="Italy",
            site="eBay",
            repetition=3,
            start_time=60.0,
            offered=["Texas"],
        )
        assert rec.client == "Italy"
        assert rec.repetition == 3
        assert rec.start_time == 60.0
        assert rec.offered == ("Texas",)
        assert rec.set_size == 1
        assert rec.direct_throughput > 0
        assert rec.selected_throughput > 0
        assert rec.direct_class in ("low", "medium", "high")

    def test_deterministic(self, section2_scenario):
        kw = dict(
            study="t", client="Italy", site="eBay", repetition=0,
            start_time=0.0, offered=["Texas"],
        )
        a = run_paired_transfer(section2_scenario, **kw)
        b = run_paired_transfer(section2_scenario, **kw)
        assert a == b

    def test_empty_offer_is_direct(self, section2_scenario):
        rec = run_paired_transfer(
            section2_scenario,
            study="t", client="Italy", site="eBay",
            repetition=0, start_time=0.0, offered=[],
        )
        assert rec.selected_via is None
        assert rec.probe_overhead == 0.0


class TestSection2Study:
    def test_store_shape(self, section2_scenario, section2_store):
        expected = len(section2_scenario.client_names) * 12
        assert len(section2_store) == expected

    def test_one_relay_offered_per_transfer(self, section2_store):
        assert all(r.set_size == 1 for r in section2_store)

    def test_rotation_covers_relays(self, section2_scenario):
        rot = section2_relay_rotation(section2_scenario, "Italy")
        assert sorted(rot) == sorted(section2_scenario.relay_names)
        # Deterministic per client.
        assert rot == section2_relay_rotation(section2_scenario, "Italy")
        assert rot != section2_relay_rotation(section2_scenario, "Sweden")

    def test_start_times_spaced_by_interval(self, section2_store):
        italy = section2_store.filter(client="Italy")
        times = sorted(italy.column("start_time"))
        gaps = np.diff(times)
        assert np.all(gaps == 360.0)

    def test_schedule_must_fit_horizon(self, section2_scenario):
        with pytest.raises(ValueError, match="horizon"):
            Section2Study(section2_scenario, repetitions=100_000)

    def test_invalid_params(self, section2_scenario):
        with pytest.raises(ValueError):
            Section2Study(section2_scenario, repetitions=0)
        with pytest.raises(ValueError):
            Section2Study(section2_scenario, interval=0.0)


class TestSection4Study:
    def test_sweep_shape(self, section4_scenario, section4_store):
        # 3 clients x 4 set sizes x 15 repetitions
        assert len(section4_store) == 3 * 4 * 15

    def test_set_sizes_recorded(self, section4_store):
        assert sorted(set(section4_store.column("set_size"))) == [1, 4, 10, 35]

    def test_offered_subsets_of_full_set(self, section4_scenario, section4_store):
        full = set(section4_scenario.relay_names)
        for rec in section4_store:
            assert set(rec.offered) <= full
            assert len(set(rec.offered)) == len(rec.offered)

    def test_run_policy_observes(self, section4_scenario):
        class SpyPolicy(SelectionPolicy):
            observed = 0

            def candidates(self, client, server, full_set, rng, *, now=0.0):
                return []

            def observe(self, client, server, offered, chosen, throughput=None):
                type(self).observed += 1

        study = Section4Study(section4_scenario, repetitions=2)
        study.run_policy(SpyPolicy(), clients=["Duke"])
        assert SpyPolicy.observed == 2

    def test_run_policy_custom_label(self, section4_scenario):
        study = Section4Study(section4_scenario, repetitions=1)
        store = study.run_policy(
            UniformRandomSetPolicy(2), clients=["Duke"], set_size_label=99
        )
        assert store[0].set_size == 99

    def test_sequential_probing_default(self, section4_scenario):
        from repro.core.probe import ProbeMode

        study = Section4Study(section4_scenario)
        assert study.config.probe_mode is ProbeMode.SEQUENTIAL


class TestInterferingPair:
    def test_record_shape(self, section2_scenario):
        from repro.workloads.experiment import run_interfering_pair

        rec = run_interfering_pair(
            section2_scenario,
            study="t",
            client="Italy",
            site="eBay",
            repetition=0,
            start_time=0.0,
            offered=["Texas"],
        )
        assert rec.direct_throughput > 0
        assert rec.selected_throughput > 0

    def test_interference_depresses_control(self, section2_scenario):
        """Sharing the node lowers the control's measured direct throughput
        relative to the isolated measurement."""
        import numpy as np

        from repro.workloads.experiment import (
            run_interfering_pair,
            run_paired_transfer,
        )

        iso, intf = [], []
        for j in range(6):
            kw = dict(
                client="Sweden", site="eBay", repetition=j,
                start_time=j * 360.0, offered=["Texas"],
            )
            iso.append(
                run_paired_transfer(section2_scenario, study="iso", **kw)
                .direct_throughput
            )
            intf.append(
                run_interfering_pair(section2_scenario, study="int", **kw)
                .direct_throughput
            )
        assert float(np.mean(intf)) <= float(np.mean(iso)) * 1.01

    def test_deterministic(self, section2_scenario):
        from repro.workloads.experiment import run_interfering_pair

        kw = dict(
            study="t", client="Italy", site="eBay", repetition=1,
            start_time=360.0, offered=["Texas"],
        )
        a = run_interfering_pair(section2_scenario, **kw)
        b = run_interfering_pair(section2_scenario, **kw)
        assert a == b

"""Scenario assembly tests."""

import hashlib

import pytest

from repro.core.session import SessionConfig
from repro.net.topology import wan_link_name
from repro.util.units import mb
from repro.workloads.profiles import ThroughputClass
from repro.workloads.scenario import Scenario, ScenarioSpec


class TestSpecs:
    def test_section2_shape(self):
        spec = ScenarioSpec.section2()
        assert len(spec.clients) == 22
        assert len(spec.relays) == 21
        assert spec.sites == ("eBay", "Google", "Microsoft", "Yahoo")
        assert spec.file_bytes >= mb(2)  # paper: files not smaller than 2 MB

    def test_section4_shape(self):
        spec = ScenarioSpec.section4()
        assert [c.name for c in spec.clients] == ["Duke", "Italy", "Sweden"]
        assert len(spec.relays) == 35
        assert spec.sites == ("eBay",)

    def test_section4_forced_classes_low_or_medium(self):
        spec = ScenarioSpec.section4()
        for cls in spec.forced_classes.values():
            assert cls in (ThroughputClass.LOW, ThroughputClass.MEDIUM)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec.section2(sites=())
        with pytest.raises(ValueError):
            ScenarioSpec.section2(horizon=-1.0)
        with pytest.raises(ValueError, match="without profiles"):
            ScenarioSpec.section2(sites=("AltaVista",))


class TestBuild:
    def test_build_section2(self, section2_scenario):
        sc = section2_scenario
        assert len(sc.client_names) == 22
        assert len(sc.relay_names) == 21
        assert sc.site_names == ["eBay"]
        sc.topology.validate()

    def test_all_wan_segments_present(self, section2_scenario):
        sc = section2_scenario
        for client in sc.client_names:
            assert sc.topology.has_link(wan_link_name("eBay", client))
            for relay in sc.relay_names:
                assert sc.topology.has_link(wan_link_name(relay, client))
        for relay in sc.relay_names:
            assert sc.topology.has_link(wan_link_name("eBay", relay))

    def test_resource_published_everywhere(self, section2_scenario):
        sc = section2_scenario
        for server in sc.servers.values():
            assert server.resource_size(sc.resource) == int(sc.spec.file_bytes)

    def test_profiles_for_every_client(self, section2_scenario):
        assert set(section2_scenario.profiles) == set(section2_scenario.client_names)

    def test_deterministic_build(self):
        spec = ScenarioSpec.section2(sites=("eBay",))
        a = Scenario.build(spec, seed=5)
        b = Scenario.build(spec, seed=5)
        assert a.profiles == b.profiles
        link = wan_link_name("eBay", "Italy")
        assert a.topology.link(link).trace == b.topology.link(link).trace

    def test_seed_changes_build(self):
        spec = ScenarioSpec.section2(sites=("eBay",))
        a = Scenario.build(spec, seed=5)
        b = Scenario.build(spec, seed=6)
        link = wan_link_name("eBay", "Italy")
        assert a.topology.link(link).trace != b.topology.link(link).trace

    def test_section4_forced_classes_applied(self, section4_scenario):
        assert (
            section4_scenario.profiles["Sweden"].throughput_class
            is ThroughputClass.LOW
        )
        assert (
            section4_scenario.profiles["Duke"].throughput_class
            is ThroughputClass.MEDIUM
        )


#: sha256 over every link's name, ``times`` bytes and ``values`` bytes, in
#: topology order, as the per-step samplers wrote them at commit 6bdcab6.
#: Any drift in a capacity sampler's RNG consumption or arithmetic - even
#: one ulp on one link - changes these digests.
PINNED_TRACE_DIGESTS = {
    ("section2", 2007): "10c0ca44e7f70c40f32bd93a9eb486007cc3670feab4dc5d836662ea8cf6ab89",
    ("section2", 1234): "ca74daadfb1b00cf7cb6003b67174d78d0019d6205cf88863573f5368a7d10dc",
    ("section4", 2007): "0a6c2aa53de6698a28e35b5c51f2538995e463273ae020982666b2a48116657a",
    ("section4", 1234): "a895ded4b90f5fe511c44f99f4e2a5f8579ffd6e664ed749b0f98ea0c0cde249",
}


class TestTraceBytes:
    @pytest.mark.parametrize("preset,seed", sorted(PINNED_TRACE_DIGESTS))
    def test_every_link_trace_is_pinned(self, preset, seed):
        spec = getattr(ScenarioSpec, preset)()
        digest = hashlib.sha256()
        for link in Scenario.build(spec, seed=seed).topology.links:
            digest.update(link.name.encode())
            digest.update(link.trace.times.tobytes())
            digest.update(link.trace.values.tobytes())
        assert digest.hexdigest() == PINNED_TRACE_DIGESTS[(preset, seed)]


class TestUniverse:
    def test_universe_time(self, section2_scenario):
        u = section2_scenario.universe(100.0)
        assert u.sim.now == 100.0

    def test_negative_start_rejected(self, section2_scenario):
        with pytest.raises(ValueError):
            section2_scenario.universe(-1.0)

    def test_same_start_same_conditions(self, section2_scenario):
        sc = section2_scenario
        u1 = sc.universe(1000.0)
        u2 = sc.universe(1000.0)
        r1 = u1.session.download_direct("Italy", "eBay", sc.resource)
        r2 = u2.session.download_direct("Italy", "eBay", sc.resource)
        assert r1.transfer_throughput == r2.transfer_throughput

    def test_noise_labels_seed_session(self, section4_scenario):
        cfg = SessionConfig(probe_noise_sigma=0.2)
        u = section4_scenario.universe(0.0, config=cfg, noise_labels=("t", 1))
        assert u.session is not None  # rng wired without error


class TestStaticRelayChoice:
    def test_good_static_relay_is_good(self, section2_scenario):
        sc = section2_scenario
        relay = sc.good_static_relay("Italy", rank=2)
        best = sc.good_static_relay("Italy", rank=0)
        caps = {
            r: sc.mean_overlay_capacity("Italy", r) for r in sc.relay_names
        }
        ranked = sorted(caps, key=caps.get, reverse=True)
        assert best == ranked[0]
        assert relay == ranked[2]

    def test_rank_clamped(self, section2_scenario):
        sc = section2_scenario
        assert sc.good_static_relay("Italy", rank=10_000) == sorted(
            sc.relay_names,
            key=lambda r: sc.mean_overlay_capacity("Italy", r),
            reverse=True,
        )[-1]

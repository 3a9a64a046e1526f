"""Route tests: RTTs, legs, bottlenecks, shared links."""

import pytest

from repro.net.link import Link
from repro.net.node import Node, NodeKind
from repro.net.route import Route
from repro.net.topology import Topology
from repro.net.trace import CapacityTrace


def C(v):
    return CapacityTrace.constant(v)


def link(name, src, dst, cap, delay=0.0):
    return Link(name, src, dst, C(cap), delay)


class TestRouteBasics:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Route([])

    def test_repeated_link_rejected(self):
        l = link("a", "x", "y", 1.0)
        with pytest.raises(ValueError, match="repeats"):
            Route([l, l])

    def test_endpoints(self):
        r = Route([link("a", "S", "M", 1.0), link("b", "M", "C", 1.0)])
        assert r.source == "S"

    def test_rtt_sums_delays(self):
        r = Route([link("a", "s", "m", 1.0, 0.01), link("b", "m", "c", 1.0, 0.02)])
        assert r.rtt == pytest.approx(0.06)

    def test_is_indirect(self):
        direct = Route([link("a", "s", "c", 1.0)])
        ind = Route([link("a", "s", "c", 1.0)], via="R")
        assert not direct.is_indirect and ind.is_indirect

    def test_len_and_describe(self):
        r = Route([link("a", "S", "C", 1.0)], via=None)
        assert len(r) == 1
        assert "direct" in r.describe()


class TestBottleneck:
    def test_bottleneck_trace(self):
        l1 = Link("a", "s", "m", CapacityTrace([0.0, 10.0], [5.0, 1.0]))
        l2 = Link("b", "m", "c", C(3.0))
        r = Route([l1, l2])
        bt = r.bottleneck_trace()
        assert bt.value_at(0.0) == 3.0
        assert bt.value_at(11.0) == 1.0


class TestSharedLinks:
    def test_shares_link_with(self):
        common = link("common", "s", "m", 1.0)
        r1 = Route([common, link("a", "m", "c", 1.0)])
        r2 = Route([common, link("b", "m", "d", 1.0)])
        r3 = Route([link("c", "s", "d", 1.0)])
        assert r1.shares_link_with(r2)
        assert not r1.shares_link_with(r3)


class TestLegs:
    def build_routes(self):
        topo = Topology()
        topo.add_node(Node("C", NodeKind.CLIENT, region="asia"))
        topo.add_node(Node("R", NodeKind.RELAY, region="us"))
        topo.add_node(Node("S", NodeKind.SERVER, region="us"))
        for n in ("C", "R", "S"):
            topo.add_access_link(n, C(1000.0))
        topo.add_wan_link("S", "C", C(1.0))
        topo.add_wan_link("S", "R", C(1.0))
        topo.add_wan_link("R", "C", C(1.0))
        return topo.direct_route("C", "S"), topo.indirect_route("C", "R", "S")

    def test_direct_single_leg(self):
        direct, _ = self.build_routes()
        assert direct.leg_rtts == (direct.rtt,)
        assert direct.ramp_rtt == direct.rtt

    def test_indirect_two_legs(self):
        _, ind = self.build_routes()
        assert len(ind.leg_rtts) == 2
        assert sum(ind.leg_rtts) == pytest.approx(ind.rtt)

    def test_ramp_rtt_is_slowest_leg(self):
        _, ind = self.build_routes()
        assert ind.ramp_rtt == max(ind.leg_rtts)

    def test_split_tcp_ramp_shorter_than_end_to_end(self):
        # The slowest leg is strictly shorter than the concatenated path.
        _, ind = self.build_routes()
        assert ind.ramp_rtt < ind.rtt

    def test_leg_split_happens_at_relay_access(self):
        _, ind = self.build_routes()
        # leg 1: server access + S->R wan + relay access; leg 2: R->C wan + client access
        leg2_delay = ind.leg_rtts[1] / 2.0
        expected = ind.links[3].delay + ind.links[4].delay
        assert leg2_delay == pytest.approx(expected)

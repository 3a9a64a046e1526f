"""Node, link, latency and topology tests."""

import pytest

from repro.net.latency import LatencyModel
from repro.net.link import Link
from repro.net.node import Node, NodeKind
from repro.net.topology import Topology, access_link_name, wan_link_name
from repro.net.trace import CapacityTrace


def C(v=1000.0):
    return CapacityTrace.constant(v)


class TestNode:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Node("", NodeKind.CLIENT)

    def test_kind_type_checked(self):
        with pytest.raises(TypeError):
            Node("X", "client")  # type: ignore[arg-type]

    def test_hostname_not_in_equality(self):
        a = Node("X", NodeKind.RELAY, hostname="a.example")
        b = Node("X", NodeKind.RELAY, hostname="b.example")
        assert a == b

    def test_str(self):
        assert str(Node("Italy", NodeKind.CLIENT)) == "Italy"


class TestLink:
    def test_capacity_at(self):
        l = Link("l", "a", "b", CapacityTrace([0.0, 5.0], [10.0, 20.0]))
        assert l.trace.value_at(0.0) == 10.0
        assert l.trace.value_at(6.0) == 20.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Link("l", "a", "b", C(), delay=-0.1)

    def test_trace_type_checked(self):
        with pytest.raises(TypeError):
            Link("l", "a", "b", trace=123)  # type: ignore[arg-type]

    def test_with_trace(self):
        l = Link("l", "a", "b", C(1.0), delay=0.5)
        l2 = l.with_trace(C(9.0))
        assert l2.trace.value_at(0) == 9.0
        assert l2.delay == 0.5 and l2.name == l.name

    def test_identity_by_name(self):
        assert Link("l", "a", "b", C()) == Link("l", "x", "y", C(5.0))
        assert hash(Link("l", "a", "b", C())) == hash(Link("l", "x", "y", C()))


class TestLatencyModel:
    def test_symmetry(self):
        m = LatencyModel()
        assert m.one_way("us", "europe") == m.one_way("europe", "us")

    def test_rtt_is_twice_one_way(self):
        m = LatencyModel()
        assert m.rtt("us", "asia") == pytest.approx(2 * m.one_way("us", "asia"))

    def test_access_delay_added(self):
        base = LatencyModel(access_delay=0.0).one_way("us", "us")
        more = LatencyModel(access_delay=0.01).one_way("us", "us")
        assert more == pytest.approx(base + 0.01)

    def test_unknown_region_raises(self):
        with pytest.raises(KeyError):
            LatencyModel().one_way("us", "atlantis")

    def test_all_catalogue_regions_covered(self):
        from repro.net.latency import REGIONS

        m = LatencyModel()
        for a in REGIONS:
            for b in REGIONS:
                assert m.one_way(a, b) > 0.0

    def test_intercontinental_slower_than_local(self):
        m = LatencyModel()
        assert m.one_way("us", "oceania") > m.one_way("us", "us")


class TestTopology:
    def build(self):
        topo = Topology()
        topo.add_node(Node("C", NodeKind.CLIENT, region="europe"))
        topo.add_node(Node("R", NodeKind.RELAY, region="us"))
        topo.add_node(Node("S", NodeKind.SERVER, region="us"))
        topo.add_access_link("C", C())
        topo.add_access_link("R", C())
        topo.add_access_link("S", C())
        topo.add_wan_link("S", "C", C(500.0))
        topo.add_wan_link("S", "R", C(2000.0))
        topo.add_wan_link("R", "C", C(800.0))
        return topo

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("X", NodeKind.CLIENT))
        with pytest.raises(ValueError, match="duplicate"):
            topo.add_node(Node("X", NodeKind.RELAY))

    def test_duplicate_access_rejected(self):
        topo = Topology()
        topo.add_node(Node("X", NodeKind.CLIENT))
        topo.add_access_link("X", C())
        with pytest.raises(ValueError, match="already has"):
            topo.add_access_link("X", C())

    def test_wan_delay_from_latency_model(self):
        topo = self.build()
        link = topo.link(wan_link_name("S", "C"))
        assert link.delay == pytest.approx(topo.latency.one_way("us", "europe"))

    def test_unknown_node_raises_with_context(self):
        with pytest.raises(KeyError, match="unknown node"):
            self.build().node("Z")

    def test_unknown_link(self):
        with pytest.raises(KeyError, match="unknown link"):
            self.build().link("wan:A->B")

    def test_kind_lists(self):
        topo = self.build()
        assert [n.name for n in topo.clients] == ["C"]
        assert [n.name for n in topo.relays] == ["R"]
        assert [n.name for n in topo.servers] == ["S"]

    def test_direct_route_composition(self):
        route = self.build().direct_route("C", "S")
        assert [l.name for l in route.links] == [
            access_link_name("S"),
            wan_link_name("S", "C"),
            access_link_name("C"),
        ]
        assert route.via is None

    def test_indirect_route_composition(self):
        route = self.build().indirect_route("C", "R", "S")
        assert route.via == "R"
        assert len(route.links) == 5
        assert route.links[2].name == access_link_name("R")

    def test_route_kind_enforcement(self):
        topo = self.build()
        with pytest.raises(ValueError, match="expected client"):
            topo.direct_route("R", "S")
        with pytest.raises(ValueError, match="expected relay"):
            topo.indirect_route("C", "S", "S")

    def test_validate_missing_access(self):
        topo = Topology()
        topo.add_node(Node("X", NodeKind.CLIENT))
        with pytest.raises(ValueError, match="missing access"):
            topo.validate()

    def test_validate_ok(self):
        self.build().validate()

    def test_has_wan_link(self):
        topo = self.build()
        assert topo.has_link(wan_link_name("S", "C"))
        assert not topo.has_link(wan_link_name("C", "S"))  # data direction only

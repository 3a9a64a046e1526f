"""Odds-and-ends coverage: small API corners not hit elsewhere."""

import pytest

from repro.net.link import Link
from repro.net.node import Node, NodeKind
from repro.net.topology import Topology
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.flow import FlowState
from repro.tcp.fluid import FluidNetwork
from repro.net.route import Route


def C(v=1000.0):
    return CapacityTrace.constant(v)


class TestTopologyCopy:
    def build(self):
        topo = Topology()
        topo.add_node(Node("C", NodeKind.CLIENT, region="europe"))
        topo.add_node(Node("S", NodeKind.SERVER, region="us"))
        topo.add_access_link("C", C(10.0))
        topo.add_access_link("S", C(20.0))
        topo.add_wan_link("S", "C", C(5.0))
        return topo

    def test_copy_transforms_traces(self):
        topo = self.build()
        wan = topo.link("wan:S->C")
        clone = topo.with_traces({"wan:S->C": C(10.0)})
        assert clone.link("wan:S->C").trace.value_at(0) == 10.0
        assert topo.link("wan:S->C") is wan  # the original is untouched
        assert wan.trace.value_at(0) == 5.0

    def test_copy_preserves_structure(self):
        topo = self.build()
        clone = topo.with_traces({"wan:S->C": C(1.0)})
        assert [n.name for n in clone.clients + clone.servers] == ["C", "S"]
        assert [l.name for l in clone.links] == [l.name for l in topo.links]
        rebuilt = clone.link("wan:S->C")
        assert (rebuilt.src, rebuilt.dst, rebuilt.delay) == ("S", "C", topo.link("wan:S->C").delay)
        # Links outside the mapping are shared, not copied.
        assert clone.link("access:C") is topo.link("access:C")
        assert clone.link("access:S") is topo.link("access:S")
        clone.validate()

    def test_bad_transform_rejected(self):
        topo = self.build()
        with pytest.raises(TypeError, match="CapacityTrace"):
            topo.with_traces({"wan:S->C": 42})
        with pytest.raises(KeyError, match="unknown link"):
            topo.with_traces({"wan:C->S": C(1.0)})
        assert topo.link("wan:S->C").trace.value_at(0) == 5.0

    def test_routes_on_copy_use_new_traces(self):
        topo = self.build()
        clone = topo.with_traces({"access:C": C(1.0)})
        assert clone.direct_route("C", "S").bottleneck_trace().value_at(0.0) == 1.0
        assert topo.direct_route("C", "S").bottleneck_trace().value_at(0.0) == 5.0


class TestFlowDeliveredAt:
    def test_interpolates_within_segment(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        route = Route([Link("l", "s", "c", C(1000.0))])
        flow = net.start_flow(route, 10_000.0, activation_delay=0.0)
        sim.run(until=0.0)  # allocation tick
        assert flow.rate == pytest.approx(1000.0)
        assert flow.delivered_at(2.0) == pytest.approx(2000.0)
        assert flow.delivered_at(0.0) == pytest.approx(0.0)

    def test_clamps_at_size(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        route = Route([Link("l", "s", "c", C(1000.0))])
        flow = net.start_flow(route, 1000.0, activation_delay=0.0)
        sim.run(until=0.0)
        assert flow.delivered_at(100.0) == pytest.approx(1000.0)

    def test_inactive_flow_returns_materialised_value(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        route = Route([Link("l", "s", "c", C(1000.0))])
        flow = net.start_flow(route, 500.0, activation_delay=0.0)
        sim.run()
        assert flow.state is FlowState.COMPLETED
        assert flow.delivered_at(1e9) == 500.0


class TestRequestLatencyFactor:
    def test_factor_scales_default_activation(self):
        sim = Simulator()
        net = FluidNetwork(sim, default_request_latency=2.0)
        route = Route([Link("l", "s", "c", C(1000.0), delay=0.1)])
        flow = net.start_flow(route, 100.0)
        net.run_to_completion(flow)
        # activation = 2.0 * rtt = 0.4
        assert flow.activated_at == pytest.approx(0.4)


class TestSummaryModule:
    def test_full_report_orders_sections(self, section4_store):
        from repro.analysis.summary import full_report

        text = full_report(section4_store, table3_client="Duke")
        assert text.index("Headline rates") < text.index("Figure 1")
        assert text.index("Figure 1") < text.index("Figure 6")
        assert "Table III" in text

    def test_table3_client_missing_is_skipped(self, section2_store):
        from repro.analysis.summary import full_report

        text = full_report(section2_store, table3_client="NotAClient")
        assert "Table III" not in text

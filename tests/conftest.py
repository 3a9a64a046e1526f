"""Shared fixtures: miniature topologies and cached study runs.

The expensive fixtures (scenario builds, study campaigns) are session-scoped
so the whole analysis test battery reuses one simulated data set.
"""

from __future__ import annotations

from typing import Dict, Optional

import pytest

from repro.core.session import SessionConfig, TransferSession
from repro.http.server import WebServer
from repro.http.transfer import TcpParams
from repro.net.node import Node, NodeKind
from repro.net.topology import Topology
from repro.net.trace import CapacityTrace
from repro.overlay.paths import OverlayPathBuilder
from repro.overlay.registry import RelayRegistry
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.util.units import mb, mbps_to_bytes_per_s
from repro.workloads.experiment import (
    Section2Study,
    Section4Study,
)
from repro.workloads.scenario import Scenario, ScenarioSpec


class MiniWorld:
    """A 1-client / N-relay / 1-server test-bed with constant capacities.

    All rates are given in Mbps for readability; the resource is a 4 MB
    file at ``/f`` on server ``S``, client ``C``, relays ``R1..Rn``.
    """

    def __init__(
        self,
        direct_mbps: float = 1.0,
        relay_mbps: Optional[Dict[str, float]] = None,
        *,
        access_mbps: float = 8.0,
        file_mb: float = 4.0,
        client_region: str = "europe",
        direct_trace: Optional[CapacityTrace] = None,
        relay_traces: Optional[Dict[str, CapacityTrace]] = None,
    ):
        relay_mbps = relay_mbps if relay_mbps is not None else {"R1": 2.0}
        topo = Topology()
        topo.add_node(Node("C", NodeKind.CLIENT, region=client_region))
        topo.add_node(Node("S", NodeKind.SERVER, region="us"))
        topo.add_access_link("C", CapacityTrace.constant(mbps_to_bytes_per_s(access_mbps)))
        topo.add_access_link("S", CapacityTrace.constant(mbps_to_bytes_per_s(200.0)))
        topo.add_wan_link(
            "S",
            "C",
            direct_trace
            if direct_trace is not None
            else CapacityTrace.constant(mbps_to_bytes_per_s(direct_mbps)),
        )
        server = WebServer("S")
        server.publish("/f", int(mb(file_mb)))
        registry = RelayRegistry()
        for name, rate in relay_mbps.items():
            topo.add_node(Node(name, NodeKind.RELAY, region="us"))
            topo.add_access_link(
                name, CapacityTrace.constant(mbps_to_bytes_per_s(50.0))
            )
            topo.add_wan_link("S", name, CapacityTrace.constant(mbps_to_bytes_per_s(40.0)))
            overlay_trace = (relay_traces or {}).get(name)
            if overlay_trace is None:
                overlay_trace = CapacityTrace.constant(mbps_to_bytes_per_s(rate))
            topo.add_wan_link(name, "C", overlay_trace)
            registry.deploy(name)
        registry.register_origin_everywhere(server)
        topo.validate()
        self.topology = topo
        self.server = server
        self.registry = registry
        self.builder = OverlayPathBuilder(topo, registry, {"S": server})
        self.relays = list(relay_mbps)

    def universe(self, *, config: SessionConfig = SessionConfig(), start_time: float = 0.0, rng=None):
        """Fresh (sim, network, session) over this world's traces."""
        sim = Simulator(start_time=start_time)
        net = FluidNetwork(sim)
        session = TransferSession(net, self.builder, config, rng=rng)
        return sim, net, session


@pytest.fixture
def mini_world():
    """Factory fixture: build a MiniWorld with custom rates."""
    return MiniWorld


@pytest.fixture
def fast_tcp():
    """TCP parameters with a generous window (tests not about windowing)."""
    return TcpParams(max_window=262_144.0)


# --------------------------------------------------------------------- #
# Session-scoped campaign data reused across analysis tests.
# --------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def section2_scenario():
    """A fully built (single-site) §2 scenario."""
    return Scenario.build(ScenarioSpec.section2(sites=("eBay",)), seed=1234)


@pytest.fixture(scope="session")
def section2_store(section2_scenario):
    """A small §2 campaign: every client, 12 repetitions, eBay only."""
    study = Section2Study(section2_scenario, repetitions=12)
    return study.run(sites=["eBay"])


@pytest.fixture(scope="session")
def section4_scenario():
    """A fully built §4 scenario (Duke/Italy/Sweden, 35 relays)."""
    return Scenario.build(ScenarioSpec.section4(), seed=1234)


@pytest.fixture(scope="session")
def section4_store(section4_scenario):
    """A small §4 sweep: set sizes 1/4/10/35, 15 repetitions each."""
    study = Section4Study(section4_scenario, repetitions=15)
    return study.run_random_set_sweep([1, 4, 10, 35])

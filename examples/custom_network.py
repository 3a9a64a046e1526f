"""Using the library on your own network, beyond the paper's scenario.

Builds a custom three-relay topology from scratch with explicit capacity
processes (one congested direct path, relays of varying quality), then
drives the public API directly: probe engine, transfer session, and the
fluid network - including a demonstration of the "shared bottleneck"
penalty scenario the paper discusses in §3.1.
"""

import numpy as np

from repro.core.probe import ProbeEngine
from repro.core.session import SessionConfig, TransferSession
from repro.http.server import WebServer
from repro.http.transfer import TcpParams
from repro.net.capacity import MarkovModulatedCapacity
from repro.net.node import Node, NodeKind
from repro.net.topology import Topology
from repro.net.trace import CapacityTrace
from repro.overlay.paths import OverlayPathBuilder
from repro.overlay.registry import RelayRegistry
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.util.units import bytes_per_s_to_mbps, mb, mbps_to_bytes_per_s


def build_world(seed: int = 7):
    rng = np.random.default_rng(seed)
    topo = Topology()
    topo.add_node(Node("laptop", NodeKind.CLIENT, region="europe"))
    topo.add_node(Node("origin", NodeKind.SERVER, region="us"))
    for relay in ("relay-east", "relay-west", "relay-south"):
        topo.add_node(Node(relay, NodeKind.RELAY, region="us"))

    M = mbps_to_bytes_per_s
    topo.add_access_link("laptop", CapacityTrace.constant(M(10.0)))
    topo.add_access_link("origin", CapacityTrace.constant(M(100.0)))

    # A congested, bursty direct path: 2 Mbps base with deep dips.
    direct = MarkovModulatedCapacity(
        base=M(2.0),
        multipliers=(1.0, 0.3, 1.5),
        stationary=(0.5, 0.3, 0.2),
        mean_holding=(60.0, 30.0, 30.0),
    )
    topo.add_wan_link("origin", "laptop", direct.sample(3600.0, rng))

    overlay_mbps = {"relay-east": 4.0, "relay-west": 2.5, "relay-south": 1.0}
    for relay, rate in overlay_mbps.items():
        topo.add_access_link(relay, CapacityTrace.constant(M(50.0)))
        topo.add_wan_link("origin", relay, CapacityTrace.constant(M(30.0)))
        topo.add_wan_link(relay, "laptop", CapacityTrace.constant(M(rate)))

    server = WebServer("origin")
    server.publish("/dataset.bin", int(mb(6)))
    registry = RelayRegistry()
    for relay in overlay_mbps:
        registry.deploy(relay)
    registry.register_origin_everywhere(server)
    topo.validate()
    return OverlayPathBuilder(topo, registry, {"origin": server}), server


def main() -> None:
    builder, server = build_world()
    config = SessionConfig(tcp=TcpParams(max_window=262_144.0))

    # 1. Raw probe: race the direct path against every relay.
    sim = Simulator()
    net = FluidNetwork(sim)
    engine = ProbeEngine(net, tcp=config.tcp)
    paths = [builder.direct("laptop", "origin")] + builder.all_indirect(
        "laptop", "origin"
    )
    outcome = engine.run(paths, "/dataset.bin")
    print("probe race winner:", outcome.winner.label)
    print(f"probe phase took {outcome.overhead_seconds:.2f} s, "
          f"moved {outcome.total_probe_bytes / 1000:.0f} KB total")

    # 2. Full session: probe + remainder fetch.
    sim2 = Simulator()
    net2 = FluidNetwork(sim2)
    session = TransferSession(net2, builder, config)
    result = session.download(
        "laptop", "origin", "/dataset.bin",
        ["relay-east", "relay-west", "relay-south"],
    )
    print(f"\nsession selected: {result.selected_via or 'direct'}")
    print(f"bulk throughput:  {bytes_per_s_to_mbps(result.transfer_throughput):.2f} Mbps")
    print(f"end-to-end:       {bytes_per_s_to_mbps(result.end_to_end_throughput):.2f} Mbps")

    # 3. The shared-bottleneck hazard (paper §3.1): when the client's own
    # access pipe is the bottleneck, the indirect path cannot help - it
    # shares that link with the direct path.
    direct_route = builder.direct("laptop", "origin").route
    for relay in ("relay-east", "relay-west", "relay-south"):
        ind = builder.indirect("laptop", relay, "origin").route
        shared = ind.shares_link_with(direct_route)
        print(f"{relay}: shares a link with the direct path -> {shared} "
              "(the client access pipe)")


if __name__ == "__main__":
    main()

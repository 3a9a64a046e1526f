"""Network substrate: nodes, links, capacity processes, topology, routes."""

from repro.net.capacity import (
    CapacityProcess,
    ConstantCapacity,
    LognormalAR1Capacity,
    MarkovModulatedCapacity,
)
from repro.net.failures import (
    FaultWindow,
    OutageGenerator,
    apply_fault_windows,
    blackout_spans,
    merge_outage_plans,
    node_outage_plan,
    node_wan_links,
)
from repro.net.latency import DEFAULT_ONE_WAY_DELAYS, REGIONS, LatencyModel
from repro.net.link import Link
from repro.net.node import Node, NodeKind
from repro.net.route import Route
from repro.net.topology import Topology, access_link_name, wan_link_name
from repro.net.trace import CapacityTrace

__all__ = [
    "CapacityTrace",
    "CapacityProcess",
    "ConstantCapacity",
    "MarkovModulatedCapacity",
    "LognormalAR1Capacity",
    "FaultWindow",
    "apply_fault_windows",
    "blackout_spans",
    "OutageGenerator",
    "node_wan_links",
    "node_outage_plan",
    "merge_outage_plans",
    "LatencyModel",
    "REGIONS",
    "DEFAULT_ONE_WAY_DELAYS",
    "Node",
    "NodeKind",
    "Link",
    "Route",
    "Topology",
    "access_link_name",
    "wan_link_name",
]

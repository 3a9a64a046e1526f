"""Topology assembly: nodes, access links, WAN segments, route construction.

The study's network reduces to a star-of-stars: every node owns an *access
link* (its last-mile/campus pipe) and every communicating pair owns a *WAN
segment* capturing the wide-area portion of their Internet path.  Routes are
built in the **data direction** (server towards client), since the workload
is download-dominated:

* direct route:    ``access:server -> wan:server->client -> access:client``
* indirect route:  ``access:server -> wan:server->relay -> access:relay ->
  wan:relay->client -> access:client``

The shared ``access:client`` (and ``access:server``) links are what make the
direct and indirect paths contend when probed concurrently, and are one of
the paper's "common bottleneck" penalty scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.net.latency import LatencyModel
from repro.net.link import Link
from repro.net.node import Node, NodeKind
from repro.net.route import Route
from repro.net.trace import CapacityTrace

__all__ = ["Topology", "access_link_name", "wan_link_name"]


def access_link_name(node: str) -> str:
    """Canonical name of a node's access link."""
    return f"access:{node}"


def wan_link_name(src: str, dst: str) -> str:
    """Canonical name of the WAN segment carrying data from src to dst."""
    return f"wan:{src}->{dst}"


class Topology:
    """A collection of nodes and capacity-carrying links with route building.

    Parameters
    ----------
    latency:
        Latency model used to derive WAN propagation delays from node
        regions when a delay is not given explicitly.
    """

    def __init__(self, latency: Optional[LatencyModel] = None):
        self.latency = latency or LatencyModel()
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[str, Link] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> Node:
        """Register a node; names must be unique."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def add_access_link(self, node_name: str, trace: CapacityTrace, *, delay: float = 0.0) -> Link:
        """Attach an access link to an existing node."""
        node = self.node(node_name)
        name = access_link_name(node.name)
        if name in self._links:
            raise ValueError(f"node {node_name!r} already has an access link")
        link = Link(name, node.name, node.name, trace, delay)
        self._links[name] = link
        return link

    def add_wan_link(
        self,
        src: str,
        dst: str,
        trace: CapacityTrace,
        *,
        delay: Optional[float] = None,
    ) -> Link:
        """Add the WAN segment carrying data from ``src`` to ``dst``.

        ``delay`` defaults to the latency model's one-way delay between the
        endpoints' regions.
        """
        a = self.node(src)
        b = self.node(dst)
        if delay is None:
            delay = self.latency.one_way(a.region, b.region)
        name = wan_link_name(src, dst)
        if name in self._links:
            raise ValueError(f"duplicate WAN link {name!r}")
        link = Link(name, src, dst, trace, delay)
        self._links[name] = link
        return link

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def node(self, name: str) -> Node:
        """Look up a node by name (KeyError with context if absent)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def link(self, name: str) -> Link:
        """Look up a link by canonical name."""
        try:
            return self._links[name]
        except KeyError:
            raise KeyError(f"unknown link {name!r}") from None

    def has_link(self, name: str) -> bool:
        """True if a link with this canonical name exists."""
        return name in self._links

    @property
    def links(self) -> List[Link]:
        """All registered links (insertion order)."""
        return list(self._links.values())

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        """All nodes with the given role."""
        return [n for n in self._nodes.values() if n.kind is kind]

    @property
    def clients(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.CLIENT)

    @property
    def relays(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.RELAY)

    @property
    def servers(self) -> List[Node]:
        return self.nodes_of_kind(NodeKind.SERVER)

    # ------------------------------------------------------------------ #
    # routes (data direction: server -> client)
    # ------------------------------------------------------------------ #
    def direct_route(self, client: str, server: str) -> Route:
        """The default Internet route delivering data from server to client."""
        self._require_kind(client, NodeKind.CLIENT)
        self._require_kind(server, NodeKind.SERVER)
        return Route(
            [
                self.link(access_link_name(server)),
                self.link(wan_link_name(server, client)),
                self.link(access_link_name(client)),
            ],
            via=None,
        )

    def indirect_route(self, client: str, relay: str, server: str) -> Route:
        """The one-hop overlay route via ``relay`` (data direction)."""
        self._require_kind(client, NodeKind.CLIENT)
        self._require_kind(relay, NodeKind.RELAY)
        self._require_kind(server, NodeKind.SERVER)
        return Route(
            [
                self.link(access_link_name(server)),
                self.link(wan_link_name(server, relay)),
                self.link(access_link_name(relay)),
                self.link(wan_link_name(relay, client)),
                self.link(access_link_name(client)),
            ],
            via=relay,
        )

    def _require_kind(self, name: str, kind: NodeKind) -> None:
        node = self.node(name)
        if node.kind is not kind:
            raise ValueError(f"node {name!r} is a {node.kind.value}, expected {kind.value}")

    def with_traces(self, traces: Mapping[str, CapacityTrace]) -> "Topology":
        """A copy with the named links' capacity traces replaced.

        Nodes and every untouched link are shared with this topology (both
        are immutable); only the named links are rebuilt, so a what-if
        study such as failure injection pays for the links it changes and
        never mutates the original.  An unknown name raises ``KeyError``.
        """
        clone = Topology(self.latency)
        clone._nodes = dict(self._nodes)
        clone._links = dict(self._links)
        for name, trace in traces.items():
            clone._links[name] = self.link(name).with_trace(trace)
        return clone

    def validate(self) -> None:
        """Check that every node has an access link; raise ValueError if not."""
        missing = [n for n in self._nodes if access_link_name(n) not in self._links]
        if missing:
            raise ValueError(f"nodes missing access links: {missing}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(clients={len(self.clients)}, relays={len(self.relays)}, "
            f"servers={len(self.servers)}, links={len(self._links)})"
        )

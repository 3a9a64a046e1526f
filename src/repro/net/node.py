"""Network node model.

Nodes come in three kinds matching the paper's deployment: *clients*
(PlanetLab international nodes), *relays* (PlanetLab USA nodes running the
forwarding service; the paper's "intermediate nodes") and *servers* (the
destination web sites).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["NodeKind", "Node"]


class NodeKind(enum.Enum):
    """Role of a node in the overlay experiment."""

    CLIENT = "client"
    RELAY = "relay"
    SERVER = "server"


@dataclass(frozen=True)
class Node:
    """An endpoint or overlay node.

    Attributes
    ----------
    name:
        Unique human-readable identifier (e.g. ``"Italy"``, ``"Texas"``,
        ``"eBay"``).
    kind:
        The node's role.
    region:
        Coarse geographic region used by the latency model (e.g.
        ``"europe"``, ``"us"``); see :mod:`repro.net.latency`.
    hostname:
        Optional PlanetLab domain name (Tables IV/V of the paper), carried
        for provenance only.
    """

    name: str
    kind: NodeKind
    region: str = "us"
    hostname: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if not isinstance(self.kind, NodeKind):
            raise TypeError(f"kind must be a NodeKind, got {self.kind!r}")

    def __str__(self) -> str:
        return self.name

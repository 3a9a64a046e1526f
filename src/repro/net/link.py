"""Directed logical links with capacity traces and propagation delay.

A *link* here is a logical path segment (a client's access pipe, a WAN
segment between two sites), not a physical hop.  Each link carries:

* a :class:`~repro.net.trace.CapacityTrace` of available capacity;
* a one-way propagation delay.

Links are directional in name but symmetric in use: the study's transfers are
strongly download-dominated, so we model the data direction only and fold the
request direction into the RTT.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.trace import CapacityTrace
from repro.util.units import s_to_ms
from repro.util.validation import check_non_negative

__all__ = ["Link"]


@dataclass
class Link:
    """A logical capacity-carrying segment between two named nodes.

    Attributes
    ----------
    name:
        Unique identifier, conventionally ``"src->dst"`` or
        ``"access:Node"``.  Equality and hashing use the name, so two
        ``Link`` objects sharing a name are treated as the *same* capacity
        constraint; the transport engine raises if distinct objects with the
        same name disagree on their capacity trace (a silent merge would
        drop a constraint).
    src, dst:
        Endpoint node names.  Access links use the node name for both.
    trace:
        Available capacity over time (bytes/second).
    delay:
        One-way propagation delay in seconds.
    """

    name: str
    src: str
    dst: str
    trace: CapacityTrace
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link name must be non-empty")
        if not isinstance(self.trace, CapacityTrace):
            raise TypeError(f"trace must be a CapacityTrace, got {type(self.trace)!r}")
        check_non_negative(self.delay, "delay")

    def with_trace(self, trace: CapacityTrace) -> "Link":
        """A copy of this link with a different capacity trace."""
        return Link(self.name, self.src, self.dst, trace, self.delay)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Link) and other.name == self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name!r}, delay={s_to_ms(self.delay):.1f}ms, {self.trace!r})"

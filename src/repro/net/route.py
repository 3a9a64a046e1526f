"""Routes: ordered sequences of links between endpoints.

A route knows its round-trip time and can compose its links' capacity traces
into a single bottleneck trace (the fluid model's view of an uncontended
path).  Contention between concurrent flows sharing links is resolved by the
max-min allocator in :mod:`repro.tcp.fluid`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.net.link import Link
from repro.net.trace import CapacityTrace

__all__ = ["Route"]


@dataclass(frozen=True)
class Route:
    """An ordered path of links from a source to a destination.

    Attributes
    ----------
    links:
        The traversed links, in order.
    via:
        Name of the intermediate (relay) node for indirect routes, ``None``
        for the direct route.  Used for bookkeeping and utilisation stats.
    """

    links: Tuple[Link, ...]
    via: Optional[str] = None

    def __init__(self, links: Sequence[Link], via: Optional[str] = None):
        if len(links) == 0:
            raise ValueError("a route needs at least one link")
        names = [l.name for l in links]
        if len(set(names)) != len(names):
            raise ValueError(f"route repeats a link: {names}")
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "via", via)
        # Links are immutable, so the delay sum is fixed at construction.
        # Cached here because route RTT sits on the engine's per-flow hot
        # path (activation delays, ramp construction) and summing per call
        # is measurable at population scale.
        object.__setattr__(
            self, "_one_way", float(sum(l.delay for l in self.links))
        )

    @property
    def is_indirect(self) -> bool:
        """True for routes through an intermediate node."""
        return self.via is not None

    @property
    def source(self) -> str:
        """Name of the route's first endpoint."""
        return self.links[0].src

    @property
    def rtt(self) -> float:
        """Round-trip time in seconds (2x one-way delay)."""
        return 2.0 * self._one_way

    @property
    def leg_rtts(self) -> Tuple[float, ...]:
        """Round-trip time of each TCP leg along this route.

        A relay proxy terminates TCP: the indirect path is two separate
        connections (server<->relay and relay<->client), each running slow
        start against its *own* RTT.  The split happens at the relay's
        access link.  Direct routes have a single leg equal to :attr:`rtt`.
        """
        if not self.is_indirect:
            return (self.rtt,)
        legs: list = [[]]
        for link in self.links:
            legs[-1].append(link)
            if link.src == link.dst == self.via:  # the relay's access link
                legs.append([])
        if not legs[-1]:  # route ended exactly at the relay (defensive)
            legs.pop()
        return tuple(2.0 * sum(l.delay for l in leg) for leg in legs)

    @property
    def ramp_rtt(self) -> float:
        """The RTT governing the end-to-end slow-start ramp and window cap.

        With split TCP the end-to-end rate is the min of the legs' rates,
        and every leg's ramp scales with its own RTT - so the *slowest leg*
        (largest RTT) governs.
        """
        return max(self.leg_rtts)

    def bottleneck_trace(self) -> CapacityTrace:
        """Pointwise-minimum capacity over the route's links."""
        return CapacityTrace.minimum([l.trace for l in self.links])

    def shares_link_with(self, other: "Route") -> bool:
        """True if the two routes traverse at least one common link.

        Shared links are the paper's "common bottleneck" hazard: an indirect
        path sharing its bottleneck with the direct path cannot win.
        """
        mine = {l.name for l in self.links}
        return any(l.name in mine for l in other.links)

    def describe(self) -> str:
        """Human-readable hop list, e.g. ``Italy =(Texas)=> eBay``."""
        hops = " -> ".join([self.links[0].src] + [l.dst for l in self.links])
        tag = f" via {self.via}" if self.via else " (direct)"
        return hops + tag

    def __len__(self) -> int:
        return len(self.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({self.describe()!r})"

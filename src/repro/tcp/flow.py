"""Fluid flow objects: the transport engine's unit of work.

A :class:`FluidFlow` is one TCP transfer rendered in the fluid model: a fixed
number of bytes moving along a :class:`~repro.net.route.Route`, rate-limited
by (a) max-min fair sharing with concurrent flows and (b) its private
slow-start/window ramp.  Flows progress through a small lifecycle::

    PENDING --activate--> ACTIVE --deliver all bytes--> COMPLETED
                             \\--abort()--> ABORTED

Flows are created and driven exclusively by
:class:`~repro.tcp.fluid.FluidNetwork`.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

from repro.net.route import Route
from repro.tcp.model import SlowStartRamp
from repro.util.validation import check_positive

__all__ = ["FlowState", "FluidFlow"]

_flow_ids = itertools.count(1)


class FlowState(enum.Enum):
    """Lifecycle states of a fluid flow."""

    PENDING = "pending"
    ACTIVE = "active"
    COMPLETED = "completed"
    ABORTED = "aborted"


class FluidFlow:
    """One fixed-size transfer over a route.

    Attributes
    ----------
    route:
        The links traversed (data direction).
    size:
        Total bytes to deliver.
    ramp:
        Optional slow-start/window rate-cap schedule; ``None`` means the flow
        is only limited by fair sharing (used for background traffic).
    requested_at:
        Simulation time the transfer was requested.
    activated_at:
        Time the first payload byte could flow (request latency elapsed).
    completed_at:
        Completion time, or ``None``.
    delivered:
        Bytes delivered as of the engine's last tick.
    rate:
        Current allocated rate (bytes/second).
    """

    __slots__ = (
        "id",
        "name",
        "route",
        "size",
        "ramp",
        "on_complete",
        "state",
        "requested_at",
        "activated_at",
        "completed_at",
        "delivered",
        "rate",
        "_last_update",
    )

    def __init__(
        self,
        route: Route,
        size: float,
        *,
        ramp: Optional[SlowStartRamp] = None,
        on_complete: Optional[Callable[["FluidFlow"], None]] = None,
        name: str = "",
        requested_at: float = 0.0,
    ):
        check_positive(size, "size")
        self.id = next(_flow_ids)
        self.name = name or f"flow{self.id}"
        self.route = route
        self.size = float(size)
        self.ramp = ramp
        self.on_complete = on_complete
        self.state = FlowState.PENDING
        self.requested_at = float(requested_at)
        self.activated_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.delivered = 0.0
        self.rate = 0.0
        self._last_update = float(requested_at)

    # ------------------------------------------------------------------ #
    # engine-facing interface
    # ------------------------------------------------------------------ #
    def _activate(self, now: float) -> None:
        if self.state is not FlowState.PENDING:
            raise RuntimeError(f"cannot activate flow in state {self.state}")
        self.state = FlowState.ACTIVE
        self.activated_at = now
        self._last_update = now

    def _advance(self, now: float) -> None:
        """Accrue bytes delivered at the current rate since the last update."""
        if self.state is FlowState.ACTIVE and now > self._last_update:
            self.delivered = min(
                self.size, self.delivered + self.rate * (now - self._last_update)
            )
        self._last_update = now

    def _complete(self, now: float) -> None:
        self.state = FlowState.COMPLETED
        self.completed_at = now
        self.delivered = self.size
        self.rate = 0.0

    def _abort(self, now: float) -> None:
        self.state = FlowState.ABORTED
        self.completed_at = now
        self.rate = 0.0

    def cap_at(self, now: float) -> float:
        """Current private rate ceiling from the slow-start ramp."""
        if self.ramp is None:
            return float("inf")
        if self.activated_at is None:
            return 0.0
        return self.ramp.cap_at(now - self.activated_at)

    def next_cap_increase(self, now: float) -> float:
        """Absolute time of the next ramp increase (``inf`` when capped out)."""
        if self.ramp is None or self.activated_at is None:
            return float("inf")
        nxt = self.ramp.next_increase_after(now - self.activated_at)
        return self.activated_at + nxt if nxt != float("inf") else float("inf")

    # ------------------------------------------------------------------ #
    # observers
    # ------------------------------------------------------------------ #
    @property
    def remaining(self) -> float:
        """Bytes still to deliver."""
        return max(0.0, self.size - self.delivered)

    def delivered_at(self, now: float) -> float:
        """Bytes delivered by time ``now``, interpolating within the current
        constant-rate segment (the engine only materialises ``delivered`` at
        tick events; observers like the session's stall watchdog sample
        between them)."""
        delivered = self.delivered
        if self.state is FlowState.ACTIVE and now > self._last_update:
            return min(self.size, delivered + self.rate * (now - self._last_update))
        return delivered

    @property
    def done(self) -> bool:
        """True once the flow has completed or been aborted."""
        return self.state in (FlowState.COMPLETED, FlowState.ABORTED)

    def duration(self) -> float:
        """Request-to-completion wall time (raises if not completed)."""
        if self.state is not FlowState.COMPLETED or self.completed_at is None:
            raise RuntimeError(f"flow {self.name} has not completed")
        return self.completed_at - self.requested_at

    def throughput(self) -> float:
        """Achieved end-to-end throughput (bytes/second), request to finish.

        This matches the paper's client-observed metric: total bytes divided
        by total elapsed time, *including* connection setup latency.
        """
        d = self.duration()
        if d <= 0.0:
            raise RuntimeError(f"flow {self.name} has non-positive duration {d}")
        return self.size / d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FluidFlow({self.name!r}, {self.state.value}, "
            f"{self.delivered:.0f}/{self.size:.0f}B via {self.route.via or 'direct'})"
        )

"""Binding HTTP messages to fluid flows: the download primitive.

:func:`issue_download` performs one HTTP GET (full or range) over a given
route: the request is resolved against the origin (directly, or through the
relay proxy for indirect routes), and the response body becomes a fluid flow
with a TCP slow-start ramp sized from the route's RTT.  Every higher layer -
the probe engine, the selection session, the experiment drivers - downloads
through this function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.http.messages import HttpRequest, HttpResponse
from repro.http.proxy import RelayProxy
from repro.http.server import WebServer
from repro.net.route import Route
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import DEFAULT_INITIAL_WINDOW, DEFAULT_MAX_WINDOW, SlowStartRamp

__all__ = ["HttpTransfer", "issue_download", "TcpParams"]


@dataclass(frozen=True)
class TcpParams:
    """Per-connection TCP parameters used to build slow-start ramps."""

    initial_window: float = DEFAULT_INITIAL_WINDOW
    max_window: float = DEFAULT_MAX_WINDOW

    def ramp_for(self, route: Route) -> SlowStartRamp:
        """Build the rate-cap schedule for a connection over ``route``.

        Uses :attr:`~repro.net.route.Route.ramp_rtt`: relay proxies split
        TCP, so an indirect path's ramp is governed by its slowest leg's
        RTT, not the concatenated end-to-end RTT.
        """
        return SlowStartRamp(
            rtt=max(route.ramp_rtt, 1e-4),
            initial_window=self.initial_window,
            max_window=self.max_window,
        )


@dataclass
class HttpTransfer:
    """One HTTP download in flight (or finished).

    Couples the message-level exchange (request/response) with the fluid
    flow moving the body.  Throughput and duration delegate to the flow.
    """

    request: HttpRequest
    response: HttpResponse
    route: Route
    flow: FluidFlow

    @property
    def done(self) -> bool:
        """True once the body finished (or the transfer was aborted)."""
        return self.flow.done

    @property
    def delivered(self) -> float:
        """Body bytes delivered so far (full size once completed).

        Striped sessions poll this for duplicate-byte accounting when a
        losing block copy is torn down mid-flight.
        """
        return float(self.flow.delivered)

    def duration(self) -> float:
        """Request-to-last-byte time in seconds."""
        return self.flow.duration()

    def throughput(self) -> float:
        """Client-observed throughput (bytes/second) including setup latency."""
        return self.flow.throughput()

    def abort(self, network: FluidNetwork) -> None:
        """Cancel the body transfer (the paper's losing-probe teardown)."""
        network.abort_flow(self.flow)


def issue_download(
    network: FluidNetwork,
    route: Route,
    server: WebServer,
    request: HttpRequest,
    *,
    proxy: Optional[RelayProxy] = None,
    tcp: TcpParams = TcpParams(),
    on_complete: Optional[Callable[[HttpTransfer], None]] = None,
    name: str = "",
) -> HttpTransfer:
    """Issue ``request`` over ``route`` and start the response body flow.

    For indirect routes a ``proxy`` must be supplied and the request is
    forwarded through it (exercising the relay's origin lookup); for the
    direct route the origin answers itself.

    Returns the :class:`HttpTransfer` immediately; completion is observed
    via ``on_complete`` or by advancing the simulator.
    """
    if route.is_indirect:
        if proxy is None:
            raise ValueError("indirect route requires a relay proxy")
        if proxy.name != route.via:
            raise ValueError(
                f"route goes via {route.via!r} but proxy is {proxy.name!r}"
            )
        response = proxy.forward(request)
    else:
        response = server.handle(request)

    transfer: HttpTransfer

    def _flow_done(_flow: FluidFlow) -> None:
        if on_complete is not None:
            on_complete(transfer)

    flow = network.start_flow(
        route,
        float(response.body_bytes),
        ramp=tcp.ramp_for(route),
        on_complete=_flow_done,
        name=name or f"GET {request.host}{request.path} via {route.via or 'direct'}",
    )
    transfer = HttpTransfer(request=request, response=response, route=route, flow=flow)
    return transfer

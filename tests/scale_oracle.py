"""Reference scale wave: one FluidFlow and one callback per probe and transfer.

:func:`repro.workloads.scale.run_scale_unit` races a wave's probes by the
column inside the vector core (:mod:`repro.vec.race`).  This is the
per-object race it replaced - a ``_Client`` state machine driven by flow
callbacks - kept here, and only here, as the oracle the columnar race must
match byte for byte.  Its one change: a probe completing once its client
has chosen (a same-tick tie) is ignored, so the earlier row wins.
"""

from typing import List, Optional

import numpy as np

from repro.net.route import Route
from repro.sim.simulator import Simulator
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.trace.records import ScaleRecord
from repro.workloads.scale import (
    ScaleStudyParams,
    _build_routes,
    _draw,
    _wave_record,
)


class _Client:
    """One client's probe-race state machine (driven by flow callbacks)."""

    __slots__ = (
        "wave", "idx", "size", "direct_route", "relay_route",
        "probe_direct", "probe_relay", "t0",
    )

    def __init__(self, wave: "_Wave", idx: int, size: float,
                 direct_route: Route, relay_route: Route):
        self.wave = wave
        self.idx = idx
        self.size = size
        self.direct_route = direct_route
        self.relay_route = relay_route
        self.probe_direct: Optional[FluidFlow] = None
        self.probe_relay: Optional[FluidFlow] = None
        self.t0 = 0.0

    def start(self) -> None:
        wave = self.wave
        self.t0 = wave.net.sim.now
        self.probe_direct = wave.start_flow(self.direct_route, wave.probe_bytes,
                                            self.probe_done)
        self.probe_relay = wave.start_flow(self.relay_route, wave.probe_bytes,
                                           self.probe_done)

    def probe_done(self, flow: FluidFlow) -> None:
        wave = self.wave
        if self.probe_direct is None:  # chosen already: a same-tick tie
            return
        if flow is self.probe_direct:
            loser, route, indirect = self.probe_relay, self.direct_route, False
        else:
            loser, route, indirect = self.probe_direct, self.relay_route, True
        self.probe_direct = self.probe_relay = None
        if loser is not None:
            wave.net.abort_flow(loser)
        now = wave.net.sim.now
        wave.probe_overhead_sum += now - self.t0
        if indirect:
            wave.indirect[self.idx] = True
        wave.start_flow(route, self.size, self.transfer_done)

    def transfer_done(self, flow: FluidFlow) -> None:
        wave = self.wave
        now = flow.completed_at
        assert now is not None
        wave.latency[self.idx] = now - self.t0
        wave.throughput[self.idx] = self.size / (now - self.t0)
        wave.n_completed += 1


class _Wave:
    """Shared per-wave context: the network, counters and result arrays."""

    def __init__(self, net: FluidNetwork, n: int, probe_bytes: float,
                 max_window: float):
        self.net = net
        self.probe_bytes = probe_bytes
        self.latency = np.full(n, np.nan)
        self.throughput = np.full(n, np.nan)
        self.indirect = np.zeros(n, dtype=bool)
        self.n_completed = 0
        self.probe_overhead_sum = 0.0
        self._max_window = max_window
        #: SlowStartRamp cache keyed by RTT (shared across the population).
        self._ramps = {}

    def ramp(self, rtt: float) -> SlowStartRamp:
        ramp = self._ramps.get(rtt)
        if ramp is None:
            ramp = SlowStartRamp(rtt=rtt, max_window=self._max_window)
            self._ramps[rtt] = ramp
        return ramp

    def start_flow(self, route: Route, size: float, done) -> FluidFlow:
        return self.net.start_flow(
            route, size, ramp=self.ramp(route.rtt), on_complete=done,
        )


def run_oracle_unit(scenario, config, unit, params: Optional[ScaleStudyParams]) -> ScaleRecord:
    """:func:`repro.workloads.scale.run_scale_unit`, one object per flow."""
    if params is None:
        params = ScaleStudyParams()
    n = params.clients_per_wave
    tier_d, tier_r, relay_of, size_of, slot_of = _draw(scenario, unit, params)
    sim = Simulator()
    net = FluidNetwork(sim)
    direct_routes, relay_routes = _build_routes(params, unit.site)

    wave = _Wave(net, n, params.probe_bytes, params.max_window)
    clients = [
        _Client(
            wave, i, params.size_classes[size_of[i]],
            direct_routes[tier_d[i]],
            relay_routes[tier_r[i]][relay_of[i]],
        )
        for i in range(n)
    ]
    by_slot: List[List[_Client]] = [[] for _ in range(params.start_slots)]
    for i, client in enumerate(clients):
        by_slot[slot_of[i]].append(client)

    def launch(batch: List[_Client]):
        def _go() -> None:
            for client in batch:
                client.start()
        return _go

    for s, batch in enumerate(by_slot):
        if batch:
            sim.schedule_at(s * params.slot_spacing, launch(batch),
                            name=f"scale-slot{s}")

    sim.run()
    if wave.n_completed != n:
        raise RuntimeError(f"oracle wave: {wave.n_completed}/{n} clients completed")
    return _wave_record(
        unit, params, size_of, wave.latency, wave.throughput, wave.indirect,
        wave.probe_overhead_sum, makespan=sim.now,
    )

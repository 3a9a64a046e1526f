"""Reference scale wave: one FluidFlow and one callback per probe and transfer.

:func:`repro.workloads.scale.run_scale_unit` races a wave's probes by the
column inside the vector core (:mod:`repro.vec.race`).  This is the
per-object race it replaced - a ``_Client`` state machine driven by flow
callbacks - kept here, and only here, as the oracle the columnar race must
match byte for byte.  Its one change: a probe completing once its client
has chosen (a same-tick tie) is ignored, so the earlier row wins.

:func:`start_oracle_races` takes ``start_races``'s arguments, so any race
can be checked, and :func:`run_oracle_unit` feeds it a wave's.  Object
flows always run the per-object tick, so the oracle never rides the core
it checks, at any population.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.net.route import Route
from repro.sim.simulator import Simulator
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.trace.records import ScaleRecord
from repro.workloads.scale import ScaleStudyParams, _race_args, _wave_record

#: A route and the slow-start ramp its flows run.
Path = Tuple[Route, SlowStartRamp]


class _Client:
    """One client's probe-race state machine (driven by flow callbacks)."""

    __slots__ = (
        "wave", "idx", "size", "direct", "relay",
        "probe_direct", "probe_relay", "t0",
    )

    def __init__(self, wave: "_Wave", idx: int, size: float,
                 direct: Path, relay: Path):
        self.wave = wave
        self.idx = idx
        self.size = size
        self.direct = direct
        self.relay = relay
        self.probe_direct: Optional[FluidFlow] = None
        self.probe_relay: Optional[FluidFlow] = None
        self.t0 = 0.0

    def start(self) -> None:
        wave = self.wave
        self.t0 = wave.net.sim.now
        self.probe_direct = wave.start_flow(self.direct, wave.probe_bytes,
                                            self.probe_done)
        self.probe_relay = wave.start_flow(self.relay, wave.probe_bytes,
                                           self.probe_done)

    def probe_done(self, flow: FluidFlow) -> None:
        wave = self.wave
        if self.probe_direct is None:  # chosen already: a same-tick tie
            return
        if flow is self.probe_direct:
            loser, path, indirect = self.probe_relay, self.direct, False
        else:
            loser, path, indirect = self.probe_direct, self.relay, True
        self.probe_direct = self.probe_relay = None
        if loser is not None:
            wave.net.abort_flow(loser)
        now = wave.net.sim.now
        wave.probe_overhead_sum += now - self.t0
        if indirect:
            wave.indirect[self.idx] = True
        wave.start_flow(path, self.size, self.transfer_done)

    def transfer_done(self, flow: FluidFlow) -> None:
        wave = self.wave
        now = flow.completed_at
        assert now is not None
        wave.latency[self.idx] = now - self.t0
        wave.throughput[self.idx] = self.size / (now - self.t0)
        wave.n_completed += 1


class _Wave:
    """Shared per-wave context: the network, counters and result columns
    (named as :class:`~repro.vec.race.ProbeRace`'s)."""

    def __init__(self, net: FluidNetwork, n: int, probe_bytes: float):
        self.net = net
        self.probe_bytes = probe_bytes
        self.latency = np.full(n, np.nan)
        self.throughput = np.full(n, np.nan)
        self.indirect = np.zeros(n, dtype=bool)
        self.n_completed = 0
        self.probe_overhead_sum = 0.0

    def start_flow(self, path: Path, size: float, done) -> FluidFlow:
        route, ramp = path
        return self.net.start_flow(route, size, ramp=ramp, on_complete=done)


def start_oracle_races(
    net: FluidNetwork,
    routes: Sequence[Route],
    ramps: Sequence[SlowStartRamp],
    sizes: Sequence[float],
    *,
    probe_bytes: float,
    direct: Sequence[int],
    relay: Sequence[int],
    size: Sequence[int],
    slot: Sequence[int],
    slot_times: Sequence[float],
) -> _Wave:
    """:meth:`repro.tcp.fluid.FluidNetwork.start_races`, one object per flow.

    Takes the same arguments; the returned wave's result columns fill in as
    the simulator runs.
    """
    wave = _Wave(net, len(direct), probe_bytes)
    paths = list(zip(routes, ramps))
    by_slot: List[List[_Client]] = [[] for _ in slot_times]
    for i in range(len(direct)):
        by_slot[int(slot[i])].append(
            _Client(wave, i, sizes[int(size[i])], paths[int(direct[i])],
                    paths[int(relay[i])])
        )

    def launch(batch: List[_Client]):
        def _go() -> None:
            for client in batch:
                client.start()
        return _go

    for s, batch in enumerate(by_slot):
        if batch:
            net.sim.schedule_at(float(slot_times[s]), launch(batch),
                                name=f"scale-slot{s}")
    return wave


def run_oracle_unit(scenario, config, unit, params: Optional[ScaleStudyParams]) -> ScaleRecord:
    """:func:`repro.workloads.scale.run_scale_unit`, one object per flow."""
    if params is None:
        params = ScaleStudyParams()
    n = params.clients_per_wave
    size_of, args = _race_args(scenario, unit, params)
    sim = Simulator()
    wave = start_oracle_races(FluidNetwork(sim), **args)
    sim.run()
    if wave.n_completed != n:
        raise RuntimeError(f"oracle wave: {wave.n_completed}/{n} clients completed")
    return _wave_record(
        unit, params, size_of, wave.latency, wave.throughput, wave.indirect,
        wave.probe_overhead_sum, makespan=sim.now,
    )

"""Scale study: a whole population racing probes against one popular site.

The paper measures indirect routing with a handful of PlanetLab clients.
This study asks the scaling question the fluid model makes answerable: what
does the select-one mechanism look like when *hundreds of thousands* of
clients race probes against the same popular site at once?  One wave is one
simulation holding the entire population concurrently on a shared topology:

* one **site access link** every transfer crosses (the popular site);
* a small set of **relay access links** (the overlay deployment);
* per-tier WAN links (generously provisioned aggregate pipes), so a
  client's standalone rate is window-limited by its tier's RTT - the
  classic ``W_max / RTT`` model - while the site access link is the shared
  constraint that actually saturates under population-scale concurrency.

Every client draws (from stable, wave-local seed-bank labels) an RTT tier
for its direct path, an independent tier for its relay path, a relay, a
transfer size class and a start slot, then races a direct probe against a
relay probe, aborts the loser, and fetches the object over the winning
path - the paper's mechanism, driven straight against the fluid engine
with no per-client session machinery.  Draws are quantised into discrete
tiers/classes on purpose: clients with identical coordinates complete at
identical instants, so the vector engine (which the network promotes itself
to once the population passes the dense-solver window) retires whole cohorts
per epoch instead of paying one epoch per client.

Each wave emits one :class:`~repro.trace.records.ScaleRecord` carrying the
population's exact latency/throughput percentiles (computed from per-client
results with numpy, so records are byte-identical for any worker count).
When observability is on, per-client latency and throughput also stream
into obs histograms (``scale.client_latency`` / ``scale.client_throughput``)
and the wave timeline appears as spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.session import SessionConfig
from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.flow import FluidFlow
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.trace.records import ScaleRecord
from repro.util.units import mb, mbps_to_bytes_per_s
from repro.workloads.experiment import STUDY_SESSION_CONFIG
from repro.workloads.scenario import Scenario
from repro.workloads.studies import Study

__all__ = [
    "STUDY",
    "SCALE_SESSION_CONFIG",
    "ScaleStudyParams",
    "plan_scale",
    "run_scale_unit",
]

SCALE_SESSION_CONFIG = STUDY_SESSION_CONFIG


@dataclass(frozen=True)
class ScaleStudyParams:
    """Plan-level parameters of the scale study (``CampaignPlan.extra``).

    Hashed into the campaign fingerprint: waves of different population
    size or topology can never share a checkpoint.

    Attributes
    ----------
    clients_per_wave:
        Concurrent clients in one wave (= one simulation).
    probe_bytes:
        Size of each race probe.
    size_classes:
        Transfer sizes (bytes) clients draw uniformly.
    tier_rtts:
        Direct-path round-trip times (seconds) clients draw uniformly; the
        relay path draws its own independent tier.
    relay_rtt_factor:
        Relay paths pay this multiplicative RTT overhead (the overlay hop).
    site_capacity:
        Shared site access-link capacity (bytes/second) - the constraint
        the whole population contends for.
    relay_capacity:
        Per-relay access-link capacity (bytes/second).
    wan_capacity:
        Per-tier aggregate WAN pipe capacity (bytes/second); provisioned
        so tiers stay window-limited rather than WAN-limited.
    n_relays:
        Deployed relays.
    start_slots / slot_spacing:
        Clients start in one of ``start_slots`` batches spaced
        ``slot_spacing`` seconds apart (quantised arrivals keep cohorts
        aligned).
    max_window:
        TCP maximum window (bytes); a tier's standalone rate is
        ``max_window / rtt``.
    """

    clients_per_wave: int = 100_000
    probe_bytes: float = 64_000.0
    size_classes: Tuple[float, ...] = (mb(0.25), mb(1.0), mb(4.0))
    tier_rtts: Tuple[float, ...] = (0.024, 0.072, 0.2)
    relay_rtt_factor: float = 1.25
    site_capacity: float = mbps_to_bytes_per_s(40_000.0)
    relay_capacity: float = mbps_to_bytes_per_s(10_000.0)
    wan_capacity: float = mbps_to_bytes_per_s(100_000.0)
    n_relays: int = 4
    start_slots: int = 2
    slot_spacing: float = 0.5
    max_window: float = 65_536.0

    def __post_init__(self) -> None:
        if self.clients_per_wave < 1:
            raise ValueError("clients_per_wave must be >= 1")
        if self.probe_bytes <= 0.0:
            raise ValueError("probe_bytes must be positive")
        if not self.size_classes or any(s <= 0.0 for s in self.size_classes):
            raise ValueError("size_classes must be positive")
        if not self.tier_rtts or any(r <= 0.0 for r in self.tier_rtts):
            raise ValueError("tier_rtts must be positive")
        if self.relay_rtt_factor < 1.0:
            raise ValueError("relay_rtt_factor must be >= 1.0")
        if self.n_relays < 1:
            raise ValueError("n_relays must be >= 1")
        if self.start_slots < 1 or self.slot_spacing < 0.0:
            raise ValueError("start_slots must be >= 1, slot_spacing >= 0")


def relay_names(params: ScaleStudyParams) -> Tuple[str, ...]:
    """The wave topology's relay labels (also the record's offered set)."""
    return tuple(f"relay{i}" for i in range(params.n_relays))


def plan_scale(
    scenario: Scenario,
    *,
    waves: int,
    interval: float = 600.0,
    config: SessionConfig = SCALE_SESSION_CONFIG,
    params: ScaleStudyParams = ScaleStudyParams(),
    site: str = "eBay",
    study: str = "scale",
):
    """Decompose the scale study into one work unit per wave.

    Waves are independent simulations (each holds its whole population
    concurrently), so they parallelise over ``--jobs`` and checkpoint like
    any other campaign.  All randomness is derived inside the unit from
    wave-local seed-bank labels, so records are byte-identical for any
    worker count or dispatch order.
    """
    from repro.runner.plan import CampaignPlan, WorkUnit

    if waves < 1:
        raise ValueError(f"waves must be >= 1, got {waves}")
    units = [
        WorkUnit(
            index=w,
            study=study,
            client=f"wave{w:03d}",
            site=site,
            repetition=w,
            start_time=w * interval,
            offered=relay_names(params),
            runner="scale",
        )
        for w in range(waves)
    ]
    return CampaignPlan(
        study=study,
        scenario_spec=scenario.spec,
        seed=scenario.bank.root_seed,
        config=config,
        units=tuple(units),
        extra=params,
    )


# --------------------------------------------------------------------------- #
# wave execution
# --------------------------------------------------------------------------- #
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


def _build_routes(
    params: ScaleStudyParams, site: str
) -> Tuple[List[Route], List[List[Route]]]:
    """The wave's shared topology: direct and relay routes per RTT tier.

    Returns ``(direct[tier], relay[tier][relay_index])``.  All clients in a
    tier share the same :class:`Route` objects - links are the shared
    constraints, routes are just their paths.
    """
    site_link = Link(
        name=f"scale:site:{site}", src=site, dst=site,
        trace=CapacityTrace.constant(params.site_capacity), delay=0.001,
    )
    relay_links = [
        Link(
            name=f"scale:relay:{name}", src=name, dst=name,
            trace=CapacityTrace.constant(params.relay_capacity), delay=0.0,
        )
        for name in relay_names(params)
    ]
    direct: List[Route] = []
    relay: List[List[Route]] = []
    for t, rtt in enumerate(params.tier_rtts):
        # Link delays are one-way; Route.rtt doubles their sum.  The site
        # hop contributes 2 x 1ms, the WAN link carries the rest.
        wan_d = Link(
            name=f"scale:wan:d{t}", src=f"tier{t}", dst=site,
            trace=CapacityTrace.constant(params.wan_capacity),
            delay=rtt / 2.0 - site_link.delay,
        )
        direct.append(Route([wan_d, site_link]))
        relay_rtt = rtt * params.relay_rtt_factor
        wan_r = Link(
            name=f"scale:wan:r{t}", src=f"tier{t}", dst="overlay",
            trace=CapacityTrace.constant(params.wan_capacity),
            delay=relay_rtt / 2.0 - site_link.delay,
        )
        relay.append(
            [Route([wan_r, rl, site_link], via=rl.src) for rl in relay_links]
        )
    return direct, relay


def run_scale_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit,
    params: Optional[ScaleStudyParams],
) -> ScaleRecord:
    """Simulate one wave and aggregate it into a :class:`ScaleRecord`.

    The wave builds its own population-scale topology (the scenario
    contributes the seed bank and the site name); the paper's PlanetLab
    scenario stays what the plan fingerprints against.
    """
    if params is None:
        params = ScaleStudyParams()
    n = params.clients_per_wave
    rng = scenario.bank.generator("scale-wave", unit.study, unit.repetition)
    n_tiers = len(params.tier_rtts)
    tier_d = rng.integers(0, n_tiers, size=n)
    tier_r = rng.integers(0, n_tiers, size=n)
    relay_of = rng.integers(0, params.n_relays, size=n)
    size_of = rng.integers(0, len(params.size_classes), size=n)
    slot_of = rng.integers(0, params.start_slots, size=n)

    sim = Simulator()
    net = FluidNetwork(sim)
    obs = sim.observer
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
        raise RuntimeError(
            f"scale wave {unit.repetition}: {wave.n_completed}/{n} clients "
            "completed after the event queue drained"
        )
    makespan = sim.now - 0.0

    lat, thr = wave.latency, wave.throughput
    if obs is not None:
        obs.count("scale.clients", float(n))
        obs.gauge("scale.wave_makespan", makespan)
        for v in lat:
            obs.observe_value("scale.client_latency", float(v))
        for v in thr:
            obs.observe_value("scale.client_throughput", float(v))

    indirect = int(np.count_nonzero(wave.indirect))
    direct_won = n - indirect
    total_bytes = float(np.sum(np.asarray(params.size_classes)[size_of]))
    mean_ind = float(thr[wave.indirect].mean()) if indirect else 0.0
    mean_dir = float(thr[~wave.indirect].mean()) if direct_won else 0.0

    def q(a: np.ndarray, p: float) -> float:
        return float(np.quantile(a, p))

    return ScaleRecord(
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        set_size=params.n_relays,
        offered=tuple(relay_names(params)),
        selected_via=None,
        direct_throughput=mean_dir,
        selected_throughput=mean_ind,
        end_to_end_throughput=total_bytes / makespan if makespan > 0 else 0.0,
        probe_overhead=wave.probe_overhead_sum / n,
        file_bytes=total_bytes,
        n_clients=n,
        n_completed=wave.n_completed,
        mean_throughput=float(thr.mean()),
        n_indirect=indirect,
        n_direct=direct_won,
        makespan=makespan,
        throughput_p10=q(thr, 0.10),
        throughput_p50=q(thr, 0.50),
        throughput_p90=q(thr, 0.90),
        throughput_p99=q(thr, 0.99),
        latency_p50=q(lat, 0.50),
        latency_p90=q(lat, 0.90),
        latency_p99=q(lat, 0.99),
        latency_max=float(lat.max()),
    )


def _arguments(parser: Any) -> None:
    parser.add_argument(
        "--clients",
        type=int,
        default=100_000,
        help="concurrent clients per wave (default 100000)",
    )
    parser.add_argument(
        "--waves",
        type=int,
        default=1,
        help="independent waves, each its own simulation (default 1)",
    )
    parser.add_argument(
        "--relays", type=int, default=4, help="deployed relays (default 4)"
    )


def _plan(scenario: Scenario, args: Any) -> Any:
    if args.waves < 1:
        raise ValueError("--waves must be >= 1")
    params = ScaleStudyParams(
        clients_per_wave=args.clients,
        n_relays=args.relays,
    )
    return plan_scale(scenario, waves=args.waves, params=params, site=args.site)


def _render(records: Sequence[Any]) -> str:
    from repro.analysis.scale import render_scale

    return render_scale(records)


STUDY = Study(
    plan=_plan,
    run_unit=run_scale_unit,
    arguments=_arguments,
    client_subset=False,
    quick={"clients": 10_000},
    quick_help="10k clients per wave for smoke runs",
    render=_render,
)

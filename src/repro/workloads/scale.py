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
path - the paper's mechanism.  The draws go to the fluid engine as integer
columns (:meth:`~repro.tcp.fluid.FluidNetwork.start_races`), and the vector
core runs the whole race as rows (:mod:`repro.vec.race`): no session
machinery, no Python object per flow and no callback per completion.
Draws are quantised into discrete tiers/classes on purpose: clients with
identical coordinates complete at identical instants, so the core retires
whole cohorts per epoch instead of paying one epoch per client.

Each wave emits one :class:`~repro.trace.records.ScaleRecord` carrying the
population's exact latency/throughput percentiles (computed from per-client
results with numpy, so records are byte-identical for any worker count).
When observability is on, the per-client latency and throughput columns
also fill obs histograms (``scale.client_latency`` /
``scale.client_throughput``) in one columnar update each, and the wave
timeline appears as spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.session import SessionConfig
from repro.net.link import Link
from repro.net.route import Route
from repro.net.trace import CapacityTrace
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.tcp.model import SlowStartRamp
from repro.trace.records import ScaleRecord
from repro.util.units import mb, mbps_to_bytes_per_s
from repro.workloads.scenario import Scenario
from repro.workloads.studies import STUDY_SESSION_CONFIG, Study

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


def _draw(scenario: Scenario, unit, params: ScaleStudyParams) -> Tuple[np.ndarray, ...]:
    """Each client's ``(direct tier, relay tier, relay, size class, slot)``."""
    n = params.clients_per_wave
    rng = scenario.bank.generator("scale-wave", unit.study, unit.repetition)
    n_tiers = len(params.tier_rtts)
    tier_d = rng.integers(0, n_tiers, size=n)
    tier_r = rng.integers(0, n_tiers, size=n)
    relay_of = rng.integers(0, params.n_relays, size=n)
    size_of = rng.integers(0, len(params.size_classes), size=n)
    slot_of = rng.integers(0, params.start_slots, size=n)
    return tier_d, tier_r, relay_of, size_of, slot_of


def _race_args(
    scenario: Scenario, unit, params: ScaleStudyParams
) -> Tuple[np.ndarray, Dict[str, Any]]:
    """Each client's size class, and the wave's ``start_races`` arguments."""
    tier_d, tier_r, relay_of, size_of, slot_of = _draw(scenario, unit, params)
    direct_routes, relay_routes = _build_routes(params, unit.site)
    # Route j < n_tiers is tier j's direct route; then tier-major relays.
    routes = direct_routes + [r for tier in relay_routes for r in tier]
    ramps = {}
    for route in routes:
        ramps.setdefault(
            route.rtt, SlowStartRamp(rtt=route.rtt, max_window=params.max_window)
        )
    return size_of, dict(
        routes=routes,
        ramps=[ramps[route.rtt] for route in routes],
        sizes=params.size_classes,
        probe_bytes=params.probe_bytes,
        direct=tier_d,
        relay=len(direct_routes) + tier_r * params.n_relays + relay_of,
        size=size_of,
        slot=slot_of,
        slot_times=[s * params.slot_spacing for s in range(params.start_slots)],
    )


def run_scale_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit,
    params: Optional[ScaleStudyParams],
) -> ScaleRecord:
    """Simulate one wave and aggregate it into a :class:`ScaleRecord`.

    The wave builds its own population-scale topology (the scenario
    contributes the seed bank and the site name); the paper's PlanetLab
    scenario stays what the plan fingerprints against.  The race runs as
    columns on the network's vector core (:mod:`repro.vec.race`).
    """
    if params is None:
        params = ScaleStudyParams()
    size_of, args = _race_args(scenario, unit, params)
    sim = Simulator()
    race = FluidNetwork(sim).start_races(**args)
    sim.run()
    n = params.clients_per_wave
    if race.n_completed != n:
        raise RuntimeError(
            f"scale wave {unit.repetition}: {race.n_completed}/{n} clients "
            "completed after the event queue drained"
        )
    obs = sim.observer
    if obs is not None:
        obs.count("scale.clients", float(n))
        obs.gauge("scale.wave_makespan", sim.now)
        obs.observe_values("scale.client_latency", race.latency)
        obs.observe_values("scale.client_throughput", race.throughput)
    return _wave_record(
        unit, params, size_of, race.latency, race.throughput, race.indirect,
        race.probe_overhead_sum, makespan=sim.now,
    )


def _wave_record(
    unit,
    params: ScaleStudyParams,
    size_of: np.ndarray,
    lat: np.ndarray,
    thr: np.ndarray,
    indirect_mask: np.ndarray,
    probe_overhead_sum: float,
    *,
    makespan: float,
) -> ScaleRecord:
    """The wave's record, from its per-client result columns."""
    n = params.clients_per_wave
    indirect = int(np.count_nonzero(indirect_mask))
    direct_won = n - indirect
    total_bytes = float(np.sum(np.asarray(params.size_classes)[size_of]))
    mean_ind = float(thr[indirect_mask].mean()) if indirect else 0.0
    mean_dir = float(thr[~indirect_mask].mean()) if direct_won else 0.0

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
        probe_overhead=probe_overhead_sum / n,
        file_bytes=total_bytes,
        n_clients=n,
        n_completed=n,
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

"""Scenario assembly: catalogues + calibration -> a runnable test-bed.

A :class:`Scenario` is the simulated analogue of the paper's PlanetLab
deployment: topology with sampled capacity traces, origin servers with the
target file, deployed relay proxies, and per-client ground-truth profiles.

Because capacity traces are sampled once at build time, any number of
"universes" (simulator + fluid network pairs) can be opened on the same
scenario at arbitrary start times and observe identical network conditions -
this is how the control (direct-only) client and the selecting client are
compared without interfering, mirroring the paper's concurrent process pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.session import SessionConfig, TransferSession
from repro.http.server import WebServer
from repro.net.node import Node, NodeKind
from repro.net.topology import Topology, wan_link_name
from repro.overlay.paths import OverlayPathBuilder
from repro.overlay.registry import RelayRegistry
from repro.sim.simulator import Simulator
from repro.tcp.fluid import FluidNetwork
from repro.util.rng import SeedBank
from repro.util.units import HOUR, mb
from repro.workloads.calibration import (
    Calibrator,
    CalibrationParams,
    DEFAULT_SITE_PROFILES,
)
from repro.workloads.planetlab import (
    CLIENT_CATALOG,
    CatalogEntry,
    RELAY_CATALOG,
    SECTION4_CLIENTS,
    SECTION4_RELAY_CATALOG,
    SITES,
)
from repro.workloads.profiles import ClientProfile, ThroughputClass

__all__ = ["ScenarioSpec", "Scenario", "Universe"]

#: Resource path served by every site.
RESOURCE_PATH = "/content/large-file"


def _stratified_classes(
    names: Sequence[str], params: CalibrationParams, bank: SeedBank
) -> Dict[str, ThroughputClass]:
    """Assign throughput classes by quota: round(n * P(class)) of each.

    Rounding residue goes to LOW, matching the paper's observation that
    international clients "generally fall into the Low throughput" bucket.
    The name -> class mapping is a seeded shuffle, so it varies with the
    scenario seed while the composition stays fixed.
    """
    n = len(names)
    n_med = int(round(n * params.class_probs[1]))
    n_high = int(round(n * params.class_probs[2]))
    n_low = n - n_med - n_high
    if n_low < 0:
        raise ValueError("class probabilities leave no room for Low clients")
    classes = (
        [ThroughputClass.LOW] * n_low
        + [ThroughputClass.MEDIUM] * n_med
        + [ThroughputClass.HIGH] * n_high
    )
    order = list(names)
    bank.generator("class-plan").shuffle(order)
    return dict(zip(order, classes))


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of a test-bed to build."""

    clients: Tuple[CatalogEntry, ...]
    relays: Tuple[CatalogEntry, ...]
    sites: Tuple[str, ...]
    horizon: float
    file_bytes: float
    params: CalibrationParams = CalibrationParams()
    #: Optional per-client forced throughput class (e.g. §4's Low/Medium
    #: clients); unforced clients draw their class from ``params``.
    forced_classes: Dict[str, ThroughputClass] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.clients or not self.relays or not self.sites:
            raise ValueError("spec needs at least one client, relay and site")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.file_bytes <= 0.0:
            raise ValueError("file_bytes must be positive")
        unknown = [s for s in self.sites if s not in DEFAULT_SITE_PROFILES]
        if unknown:
            raise ValueError(f"sites without profiles: {unknown}")

    @classmethod
    def section2(
        cls,
        *,
        sites: Sequence[str] = SITES,
        horizon: float = 11.0 * HOUR,
        file_bytes: float = mb(8),
        params: CalibrationParams = CalibrationParams(),
    ) -> "ScenarioSpec":
        """The §2-3 deployment: 22 international clients, 21 US relays."""
        return cls(
            clients=CLIENT_CATALOG,
            relays=RELAY_CATALOG,
            sites=tuple(sites),
            horizon=horizon,
            file_bytes=file_bytes,
            params=params,
        )

    @classmethod
    def section4(
        cls,
        *,
        horizon: float = 6.5 * HOUR,
        file_bytes: float = mb(2),
        params: CalibrationParams = CalibrationParams(),
    ) -> "ScenarioSpec":
        """The §4 deployment: Duke/Italy/Sweden clients, 35 US relays.

        The paper picked these clients because they fall in the Low or
        Medium categories; we force that assignment.
        """
        return cls(
            clients=SECTION4_CLIENTS,
            relays=SECTION4_RELAY_CATALOG,
            sites=("eBay",),
            horizon=horizon,
            file_bytes=file_bytes,
            params=params,
            forced_classes={
                "Duke": ThroughputClass.MEDIUM,
                "Italy": ThroughputClass.MEDIUM,
                "Sweden": ThroughputClass.LOW,
            },
        )


@dataclass
class Universe:
    """One independent simulation world over a scenario's shared traces."""

    sim: Simulator
    network: FluidNetwork
    session: TransferSession


class Scenario:
    """A fully built test-bed ready to open universes on.

    Use :meth:`build` rather than the constructor.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        topology: Topology,
        builder: OverlayPathBuilder,
        servers: Dict[str, WebServer],
        profiles: Dict[str, ClientProfile],
        relay_quality: Dict[str, float],
        bank: SeedBank,
    ):
        self.spec = spec
        self.topology = topology
        self.builder = builder
        self.servers = servers
        self.profiles = profiles
        self.relay_quality = relay_quality
        self.bank = bank
        #: Per-link blackout spans injected by :meth:`with_faults`.
        self._blackouts: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, spec: ScenarioSpec, *, seed: int = 20070326) -> "Scenario":
        """Materialise a scenario: draw profiles, sample traces, wire it up."""
        bank = SeedBank(seed)
        cal = Calibrator(spec.params, bank.child("calibration"))
        horizon = spec.horizon

        topo = Topology()
        servers: Dict[str, WebServer] = {}
        registry = RelayRegistry()
        profiles: Dict[str, ClientProfile] = {}
        relay_q: Dict[str, float] = {}

        def sample(process, *labels):
            rng = bank.generator("trace", *labels)
            return process.sample(horizon, rng)

        # Sites: server node + access pipe + the published resource.
        for site_name in spec.sites:
            site = DEFAULT_SITE_PROFILES[site_name]
            topo.add_node(Node(site_name, NodeKind.SERVER, region="us"))
            topo.add_access_link(
                site_name, sample(cal.server_access_process(site), "access", site_name)
            )
            server = WebServer(site_name)
            server.publish(RESOURCE_PATH, int(spec.file_bytes))
            servers[site_name] = server

        # Relays: node + access + proxy deployment.
        for entry in spec.relays:
            topo.add_node(
                Node(entry.name, NodeKind.RELAY, region=entry.region, hostname=entry.hostname)
            )
            topo.add_access_link(
                entry.name, sample(cal.relay_access_process(entry.name), "access", entry.name)
            )
            registry.deploy(entry.name)
            relay_q[entry.name] = cal.relay_quality(entry.name)

        # Clients: profile draw + node + access.  Throughput classes are
        # assigned by stratified quota (seeded shuffle) rather than
        # independent per-client draws, so every build has the intended
        # Low/Medium/High composition regardless of seed; explicit
        # forced_classes (e.g. §4's Low/Medium clients) take precedence.
        class_plan = _stratified_classes(
            [e.name for e in spec.clients], spec.params, bank
        )
        for entry in spec.clients:
            profile = cal.client_profile(
                entry.name,
                forced_class=spec.forced_classes.get(
                    entry.name, class_plan[entry.name]
                ),
            )
            profiles[entry.name] = profile
            topo.add_node(
                Node(entry.name, NodeKind.CLIENT, region=entry.region, hostname=entry.hostname)
            )
            topo.add_access_link(
                entry.name, sample(cal.client_access_process(profile), "access", entry.name)
            )

        # WAN segments (data direction).
        for site_name in spec.sites:
            site = DEFAULT_SITE_PROFILES[site_name]
            for entry in spec.clients:
                profile = profiles[entry.name]
                topo.add_wan_link(
                    site_name,
                    entry.name,
                    sample(
                        cal.direct_wan_process(profile, site), "direct", site_name, entry.name
                    ),
                )
            for relay in spec.relays:
                topo.add_wan_link(
                    site_name,
                    relay.name,
                    sample(
                        cal.relay_server_process(relay.name, site),
                        "relay-server",
                        site_name,
                        relay.name,
                    ),
                )
        for relay in spec.relays:
            for entry in spec.clients:
                profile = profiles[entry.name]
                topo.add_wan_link(
                    relay.name,
                    entry.name,
                    sample(
                        cal.overlay_wan_process(profile, relay.name, relay_q[relay.name]),
                        "overlay",
                        relay.name,
                        entry.name,
                    ),
                )

        for server in servers.values():
            registry.register_origin_everywhere(server)
        topo.validate()

        builder = OverlayPathBuilder(topo, registry, servers)
        return cls(spec, topo, builder, servers, profiles, relay_q, bank)

    # ------------------------------------------------------------------ #
    @property
    def resource(self) -> str:
        """Path of the large file published on every site."""
        return RESOURCE_PATH

    @property
    def client_names(self) -> List[str]:
        return [e.name for e in self.spec.clients]

    @property
    def relay_names(self) -> List[str]:
        return [e.name for e in self.spec.relays]

    @property
    def site_names(self) -> List[str]:
        return list(self.spec.sites)

    def universe(
        self,
        start_time: float,
        *,
        config: SessionConfig = SessionConfig(),
        noise_labels: Tuple = (),
    ) -> Universe:
        """Open an independent simulation world at ``start_time``.

        The world shares the scenario's immutable capacity traces, so two
        universes opened at the same time observe identical conditions.
        ``noise_labels`` seed the session's probe-measurement jitter (only
        needed when ``config.probe_noise_sigma > 0``); pass a stable label
        path such as ``(study, client, repetition)`` so individual
        measurements are reproducible in isolation.  A sanitized world
        polices the blackouts :meth:`with_faults` injected (QA-R006).
        """
        if start_time < 0.0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        sim = Simulator(start_time=start_time)
        if self._blackouts and sim.sanitizer is not None:
            sim.sanitizer.watch_fault_windows(self._blackouts)
        network = FluidNetwork(sim)
        rng = None
        if config.probe_noise_sigma > 0.0:
            rng = self.bank.generator("probe-noise", *noise_labels)
        session = TransferSession(network, self.builder, config, rng=rng)
        return Universe(sim=sim, network=network, session=session)

    def with_faults(self, windows_by_link: Dict[str, Sequence]) -> "Scenario":
        """A what-if copy of this scenario with fault windows injected.

        ``windows_by_link`` maps canonical link names (e.g.
        ``wan_link_name("eBay", "Italy")``) to sequences of
        :class:`~repro.net.failures.FaultWindow`, so gray (fractional)
        degradation and blackouts compose in one plan.  Everything else -
        profiles, servers, relays, seeds and every link outside the plan -
        is shared with the original.

        The copy remembers the plan's blackout spans on top of this
        scenario's own, and every sanitized universe opened on it polices
        them (QA-R006): a dark link must carry no capacity and no bytes.
        """
        from repro.net.failures import apply_fault_windows, blackout_spans

        unknown = [name for name in windows_by_link if not self.topology.has_link(name)]
        if unknown:
            raise KeyError(f"unknown links in fault plan: {unknown}")
        topology = self.topology.with_traces(
            {
                name: apply_fault_windows(self.topology.link(name).trace, list(windows))
                for name, windows in windows_by_link.items()
            }
        )
        builder = OverlayPathBuilder(topology, self.builder.registry, self.servers)
        faulted = Scenario(
            self.spec,
            topology,
            builder,
            self.servers,
            self.profiles,
            self.relay_quality,
            self.bank,
        )
        spans = dict(self._blackouts)
        for name, extra in blackout_spans(windows_by_link).items():
            spans[name] = sorted(spans.get(name, []) + extra)
        faulted._blackouts = spans
        return faulted

    def mean_overlay_capacity(self, client: str, relay: str) -> float:
        """Time-averaged relay->client overlay capacity (for a-priori ranking)."""
        link = self.topology.link(wan_link_name(relay, client))
        return link.trace.mean_over(0.0, self.spec.horizon)

    def good_static_relay(self, client: str, *, rank: int = 2) -> str:
        """The paper's "a good one, though not necessarily the best" relay.

        Relays are ranked by mean overlay capacity toward ``client``;
        ``rank`` = 0 is the best.  The default picks the third best - good
        but deliberately not optimal, like the paper's a-priori choice.
        """
        ranked = sorted(
            self.relay_names,
            key=lambda r: self.mean_overlay_capacity(client, r),
            reverse=True,
        )
        return ranked[min(rank, len(ranked) - 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario(clients={len(self.client_names)}, relays={len(self.relay_names)}, "
            f"sites={self.site_names}, horizon={self.spec.horizon / HOUR:.1f}h)"
        )

"""Contention-driven variability: explicit competing flows instead of traces.

The default scenarios encode background load *implicitly*: direct-path
capacity traces are Markov-modulated.  This module provides the explicit
alternative - the direct WAN segment keeps a constant raw capacity, but a
seeded Poisson stream of finite TCP flows (web-transfer sized, heavy-tailed)
shares it with the measured transfer, so available bandwidth emerges from
genuine max-min contention in the fluid engine.

Both worlds of a paired measurement receive *identical* cross-traffic
(same seed, same arrival process), preserving the control-vs-selector
comparison.  Ablation bench A7 uses this to show the paper's conclusions
are robust to how variability is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.session import SessionConfig
from repro.net.route import Route
from repro.net.topology import wan_link_name
from repro.tcp.cross_traffic import CrossTrafficConfig, CrossTrafficSource
from repro.trace.records import TransferRecord
from repro.util.validation import check_non_negative, check_positive
from repro.workloads.studies import STUDY_SESSION_CONFIG
from repro.workloads.scenario import Scenario, Universe

__all__ = ["ContentionSpec", "run_contended_pair"]


@dataclass(frozen=True)
class ContentionSpec:
    """Cross-traffic shape applied to a client's direct WAN segment.

    ``load`` is the target mean utilisation of the segment by background
    flows (0.0-0.9); arrival rate is derived from it and ``mean_size`` so
    that ``arrival_rate * mean_size = load * capacity``.
    """

    load: float = 0.5
    mean_size: float = 400_000.0
    sigma: float = 1.3
    warmup: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 0.9:
            raise ValueError(f"load must lie in [0, 0.9], got {self.load}")
        check_positive(self.mean_size, "mean_size")
        check_non_negative(self.warmup, "warmup")

    def traffic_config(self, capacity: float) -> Optional[CrossTrafficConfig]:
        """The arrival process achieving the target load on ``capacity``."""
        if self.load == 0.0:
            return None
        rate = self.load * capacity / self.mean_size
        return CrossTrafficConfig(
            arrival_rate=rate, mean_size=self.mean_size, sigma=self.sigma
        )


def _attach_cross_traffic(
    scenario: Scenario,
    universe: Universe,
    client: str,
    site: str,
    spec: ContentionSpec,
    seed_labels: Sequence,
    horizon: float,
) -> Optional[CrossTrafficSource]:
    link = scenario.topology.link(wan_link_name(site, client))
    capacity = link.trace.value_at(universe.sim.now)
    config = spec.traffic_config(capacity)
    if config is None:
        return None
    # Background flows traverse only the WAN segment: they model other
    # endpoints' traffic crossing the same congested core links, not flows
    # terminating at this client (which would consume its access pipe).
    route = Route([link])
    source = CrossTrafficSource(
        universe.network,
        [route],
        config,
        scenario.bank.generator("cross-traffic", *seed_labels),
        horizon=universe.sim.now + horizon,
    )
    source.start()
    return source


def run_contended_pair(
    scenario: Scenario,
    *,
    client: str,
    site: str,
    repetition: int,
    start_time: float,
    offered: Sequence[str],
    spec: ContentionSpec = ContentionSpec(),
    config: SessionConfig = STUDY_SESSION_CONFIG,
    traffic_horizon: float = 600.0,
) -> TransferRecord:
    """One paired measurement under explicit cross-traffic contention.

    Both universes receive byte-identical background traffic (the arrival
    stream is seeded by (client, site, repetition) only), then run the
    control and the selecting session after ``spec.warmup`` seconds so the
    background flow population reaches steady state.
    """
    labels = (client, site, repetition)

    control = scenario.universe(start_time, config=config)
    _attach_cross_traffic(scenario, control, client, site, spec, labels, traffic_horizon)
    control.sim.run(until=start_time + spec.warmup)
    ctrl_result = control.session.download_direct(client, site, scenario.resource)

    selector = scenario.universe(
        start_time, config=config, noise_labels=("contended", *labels)
    )
    _attach_cross_traffic(scenario, selector, client, site, spec, labels, traffic_horizon)
    selector.sim.run(until=start_time + spec.warmup)
    sel_result = selector.session.download(client, site, scenario.resource, list(offered))

    profile = scenario.profiles[client]
    return TransferRecord(
        study="contended",
        client=client,
        site=site,
        repetition=repetition,
        start_time=start_time,
        set_size=len(offered),
        offered=tuple(offered),
        selected_via=sel_result.selected_via,
        direct_throughput=ctrl_result.transfer_throughput,
        selected_throughput=sel_result.transfer_throughput,
        end_to_end_throughput=sel_result.end_to_end_throughput,
        probe_overhead=sel_result.probe_overhead_seconds,
        file_bytes=sel_result.size,
        direct_class=profile.throughput_class.value,
        direct_variability=profile.variability.value,
    )

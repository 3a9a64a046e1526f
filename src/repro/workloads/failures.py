"""Failure-masking study: indirect routing under direct-path outages.

The related work the paper builds on (RON, one-hop source routing, MONET)
is about *availability*: a one-hop detour recovers from most path failures.
The paper's throughput-probe mechanism masks failures for free - a dead
direct path cannot win (or even finish) the probe race - so this study
quantifies that inherited property on our substrate:

* inject Poisson outages on each studied client's direct WAN segment;
* run the paired control/selector schedule over the degraded scenario;
* compare transfer durations on outage-affected transfers.

A transfer is *affected* when its control (direct-only) execution overlaps
an outage; it is *masked* when the selecting client finished in at most
``masked_fraction`` of the control's time.

The second half of the module is the runner-integrated **availability
study** (`repro failures`): :func:`plan_failures` decomposes it into
fingerprinted :class:`~repro.runner.plan.WorkUnit`\\ s cycling through the
injection modes (healthy, direct-link flap, relay crash, both) and
:func:`run_failure_unit` executes one unit with the *resilient* protocol
(probe deadline, mid-transfer failover, transfer deadline) enabled, emitting
:class:`~repro.trace.records.FailureRecord` rows for
:mod:`repro.analysis.availability`.  Every random draw is derived from
per-unit seed-bank labels, so the study is byte-identical for any worker
count or execution order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import math

import numpy as np

from repro.core.resilience import ResilienceConfig, recovery_time_of
from repro.core.session import SessionConfig
from repro.net.failures import (
    Outage,
    OutageGenerator,
    merge_outage_plans,
    node_outage_plan,
)
from repro.net.topology import wan_link_name
from repro.trace.records import FailureRecord
from repro.workloads.experiment import STUDY_SESSION_CONFIG
from repro.workloads.scenario import Scenario
from repro.workloads.studies import Study

__all__ = [
    "STUDY",
    "FailureTransferRecord",
    "FailureStudy",
    "MaskingStats",
    "FAILURE_MODES",
    "FAILURES_RESILIENCE",
    "FAILURES_SESSION_CONFIG",
    "FailureStudyParams",
    "failure_outage_plan",
    "plan_failures",
    "run_failure_unit",
]


@dataclass(frozen=True)
class FailureTransferRecord:
    """One paired measurement on an outage-injected scenario."""

    client: str
    site: str
    repetition: int
    start_time: float
    relay: str
    selected_via: Optional[str]
    direct_duration: float
    selected_duration: float
    outage_overlap: bool

    @property
    def speedup(self) -> float:
        """Control duration / selector duration (>1 = selector faster).

        NaN when either duration is non-positive (a degenerate zero-time
        transfer has no meaningful ratio) - never raises.
        """
        if self.selected_duration <= 0.0 or self.direct_duration <= 0.0:
            return math.nan
        return self.direct_duration / self.selected_duration


@dataclass(frozen=True)
class MaskingStats:
    """Aggregate failure-masking outcome."""

    n_transfers: int
    n_affected: int
    n_masked: int
    mean_affected_speedup: float

    @property
    def masking_rate(self) -> float:
        """Fraction of outage-affected transfers that were masked.

        MONET reports avoiding 60-94% of observed failures; this is the
        comparable number for our mechanism.
        """
        if self.n_affected == 0:
            return float("nan")
        return self.n_masked / self.n_affected


@dataclass
class FailureStudy:
    """Outage injection + paired schedule for a set of clients.

    Parameters
    ----------
    scenario:
        The healthy scenario (it is never mutated).
    generator:
        Outage process applied to each studied client's direct WAN link.
    repetitions / interval:
        The per-client transfer schedule.
    masked_fraction:
        A transfer counts as masked when the selector finished in at most
        this fraction of the control's duration.
    """

    scenario: Scenario
    generator: OutageGenerator = OutageGenerator(mtbf=1200.0, mean_duration=120.0)
    repetitions: int = 20
    interval: float = 360.0
    config: SessionConfig = STUDY_SESSION_CONFIG
    masked_fraction: float = 0.7

    def outages_for(self, client: str, site: str) -> List[Outage]:
        """The seeded outage schedule for one direct path."""
        rng = self.scenario.bank.generator("outages", client, site)
        return self.generator.sample(self.scenario.spec.horizon, rng)

    def run(
        self,
        *,
        clients: Optional[Sequence[str]] = None,
        site: str = "eBay",
    ) -> List[FailureTransferRecord]:
        """Run the study; returns one record per paired transfer."""
        clients = list(clients) if clients is not None else self.scenario.client_names
        records: List[FailureTransferRecord] = []
        for client in clients:
            outages = self.outages_for(client, site)
            degraded = self.scenario.with_outages(
                {wan_link_name(site, client): outages}
            )
            rotation = list(degraded.relay_names)
            rng = degraded.bank.generator("failure-rotation", client)
            rng.shuffle(rotation)
            for j in range(self.repetitions):
                start = j * self.interval
                relay = rotation[j % len(rotation)]

                control = degraded.universe(start, config=self.config)
                ctrl = control.session.download_direct(client, site, degraded.resource)

                selector = degraded.universe(
                    start,
                    config=self.config,
                    noise_labels=("failures", client, site, j),
                )
                sel = selector.session.download(
                    client, site, degraded.resource, [relay]
                )

                overlap = any(
                    o.overlaps(ctrl.requested_at, ctrl.completed_at) for o in outages
                )
                records.append(
                    FailureTransferRecord(
                        client=client,
                        site=site,
                        repetition=j,
                        start_time=start,
                        relay=relay,
                        selected_via=sel.selected_via,
                        direct_duration=ctrl.duration,
                        selected_duration=sel.duration,
                        outage_overlap=overlap,
                    )
                )
        return records

    def masking_stats(self, records: Sequence[FailureTransferRecord]) -> MaskingStats:
        """Summarise how often outage pain was avoided."""
        affected = [r for r in records if r.outage_overlap]
        masked = [
            r
            for r in affected
            if r.selected_duration <= self.masked_fraction * r.direct_duration
        ]
        speedups = [r.speedup for r in affected if math.isfinite(r.speedup)]
        return MaskingStats(
            n_transfers=len(records),
            n_affected=len(affected),
            n_masked=len(masked),
            mean_affected_speedup=float(np.mean(speedups)) if speedups else float("nan"),
        )


# --------------------------------------------------------------------------- #
# runner-integrated availability study (`repro failures`)
# --------------------------------------------------------------------------- #
#: Injection modes the study cycles through, one per repetition slot.
FAILURE_MODES = ("none", "link", "node", "both")

#: The resilient protocol configuration the availability study runs with:
#: probes give up after 30 s, stalled bulk phases fail over, and a whole
#: session is bounded at 30 simulated minutes.
FAILURES_RESILIENCE = ResilienceConfig(
    probe_deadline=30.0,
    failover=True,
    transfer_deadline=1800.0,
)

FAILURES_SESSION_CONFIG = dataclasses.replace(
    STUDY_SESSION_CONFIG, resilience=FAILURES_RESILIENCE
)


@dataclass(frozen=True)
class FailureStudyParams:
    """Plan-level parameters of the availability study.

    Shipped to every worker inside the plan (``CampaignPlan.extra``) and
    hashed into the fingerprint, so two runs with different failure
    processes can never share a checkpoint.  Link flaps hit the client's
    direct WAN segment; node crashes take down every WAN segment through
    the crashed relay at once.
    """

    link_mtbf: float = 900.0
    link_mean_duration: float = 150.0
    node_mtbf: float = 1800.0
    node_mean_duration: float = 240.0

    def link_generator(self) -> OutageGenerator:
        return OutageGenerator(mtbf=self.link_mtbf, mean_duration=self.link_mean_duration)

    def node_generator(self) -> OutageGenerator:
        return OutageGenerator(mtbf=self.node_mtbf, mean_duration=self.node_mean_duration)


def failure_outage_plan(
    scenario: Scenario,
    params: FailureStudyParams,
    *,
    client: str,
    site: str,
    relay: str,
    mode: str,
) -> Dict[str, List[Outage]]:
    """The per-link outage map one unit injects, drawn from stable labels.

    Link-flap outages depend only on ``(client, site)`` and relay-crash
    outages only on ``relay``, so every unit that shares a coordinate sees
    the *same* failure environment regardless of worker count or execution
    order - the property the runner's determinism contract requires.
    """
    if mode not in FAILURE_MODES:
        raise ValueError(f"unknown failure mode {mode!r}; expected {FAILURE_MODES}")
    horizon = scenario.spec.horizon
    plans: List[Dict[str, List[Outage]]] = []
    if mode in ("link", "both"):
        rng = scenario.bank.generator("failures-link", client, site)
        outages = params.link_generator().sample(horizon, rng)
        if outages:
            plans.append({wan_link_name(site, client): outages})
    if mode in ("node", "both"):
        rng = scenario.bank.generator("failures-node", relay)
        outages = params.node_generator().sample(horizon, rng)
        if outages:
            plans.append(
                node_outage_plan(scenario.topology.links, relay, outages)
            )
    if not plans:
        return {}
    return merge_outage_plans(*plans)


def plan_failures(
    scenario: Scenario,
    *,
    repetitions: int,
    interval: float,
    config: SessionConfig = FAILURES_SESSION_CONFIG,
    params: FailureStudyParams = FailureStudyParams(),
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
    study: str = "failures",
):
    """Decompose the availability study into a fingerprinted campaign plan.

    Each client runs ``repetitions`` paired transfers at ``interval``
    spacing, cycling through :data:`FAILURE_MODES`; the offered set is the
    two adjacent relays of the client's seeded rotation (one when the
    scenario has a single relay), so failover always has a probed runner-up
    to fall back on.  The unit's injection mode rides in
    :attr:`~repro.runner.plan.WorkUnit.variant` and the failure process
    parameters in ``CampaignPlan.extra``.
    """
    from repro.runner.plan import CampaignPlan, WorkUnit

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if interval <= 0.0:
        raise ValueError(f"interval must be positive, got {interval}")
    client_list = list(clients) if clients is not None else scenario.client_names
    units = []
    for client in client_list:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("failure-rotation", client)
        rng.shuffle(rotation)
        for j in range(repetitions):
            first = rotation[j % len(rotation)]
            second = rotation[(j + 1) % len(rotation)]
            offered = (first,) if second == first else (first, second)
            units.append(
                WorkUnit(
                    index=len(units),
                    study=study,
                    client=client,
                    site=site,
                    repetition=j,
                    start_time=j * interval,
                    offered=offered,
                    variant=FAILURE_MODES[j % len(FAILURE_MODES)],
                )
            )
    return CampaignPlan(
        study=study,
        scenario_spec=scenario.spec,
        seed=scenario.bank.root_seed,
        config=config,
        units=tuple(units),
        extra=params,
    )


def run_failure_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit,
    params: Optional[FailureStudyParams],
) -> FailureRecord:
    """Execute one availability-study unit on a freshly degraded scenario.

    The control client re-runs the direct download on the *same* degraded
    scenario (so both sides face identical failures), and the selector runs
    the resilient protocol over the unit's offered relays.  The crashed
    relay in ``node``/``both`` modes is the unit's primary offered relay -
    the path most likely to have won the probe, which is exactly the case
    failover exists for.
    """
    if params is None:
        params = FailureStudyParams()
    mode = unit.variant or "none"
    outage_plan = failure_outage_plan(
        scenario,
        params,
        client=unit.client,
        site=unit.site,
        relay=unit.offered[0],
        mode=mode,
    )
    degraded = scenario.with_outages(outage_plan) if outage_plan else scenario
    all_outages = [o for outages in outage_plan.values() for o in outages]

    control = degraded.universe(unit.start_time, config=config)
    ctrl = control.session.download_direct(unit.client, unit.site, degraded.resource)

    selector = degraded.universe(
        unit.start_time,
        config=config,
        noise_labels=(unit.study, unit.client, unit.site, unit.repetition),
    )
    sel = selector.session.download(
        unit.client, unit.site, degraded.resource, list(unit.offered)
    )

    overlap = any(
        o.overlaps(ctrl.requested_at, ctrl.completed_at) for o in all_outages
    )
    events = sel.recovery_events
    return FailureRecord(
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        set_size=len(unit.offered),
        offered=unit.offered,
        selected_via=sel.selected_via,
        direct_throughput=ctrl.end_to_end_throughput,
        selected_throughput=sel.transfer_throughput,
        end_to_end_throughput=sel.end_to_end_throughput,
        probe_overhead=sel.probe_overhead_seconds,
        file_bytes=sel.size,
        failure_mode=mode,
        outcome=sel.outcome.value,
        direct_outcome=ctrl.outcome.value,
        n_failovers=sum(1 for e in events if e.kind == "failover"),
        n_reprobes=sum(1 for e in events if e.kind == "reprobe"),
        bytes_received=sel.delivered,
        direct_duration=ctrl.duration,
        selected_duration=sel.duration,
        time_to_recover=recovery_time_of(events),
        outage_overlap=overlap,
        recovery_events=events,
    )


def _arguments(parser: Any) -> None:
    parser.add_argument(
        "--reps",
        type=int,
        default=16,
        help="transfers per client (cycling healthy/link/node/both injection)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=360.0,
        help="seconds between a client's transfer starts (default 360)",
    )
    parser.add_argument(
        "--link-mtbf", type=float, default=900.0,
        help="mean time between direct-link flaps, seconds (default 900)",
    )
    parser.add_argument(
        "--link-duration", type=float, default=150.0,
        help="mean link-flap length, seconds (default 150)",
    )
    parser.add_argument(
        "--node-mtbf", type=float, default=1800.0,
        help="mean time between relay crashes, seconds (default 1800)",
    )
    parser.add_argument(
        "--node-duration", type=float, default=240.0,
        help="mean relay-crash length, seconds (default 240)",
    )


def _quick(args: Any) -> None:
    # A fixed tiny campaign: deterministic, covers every injection mode
    # twice per client, finishes in seconds.
    args.reps = 8


def _plan(scenario: Scenario, args: Any) -> Any:
    params = FailureStudyParams(
        link_mtbf=args.link_mtbf,
        link_mean_duration=args.link_duration,
        node_mtbf=args.node_mtbf,
        node_mean_duration=args.node_duration,
    )
    return plan_failures(
        scenario,
        repetitions=args.reps,
        interval=args.interval,
        params=params,
        site=args.site,
        clients=args.clients,
    )


def _render(records: Sequence[Any]) -> str:
    from repro.analysis.availability import render_availability

    return render_availability(records)


STUDY = Study(
    plan=_plan,
    run_unit=run_failure_unit,
    arguments=_arguments,
    quick=_quick,
    quick_help="tiny deterministic campaign (2 clients x 8 reps) for smoke runs",
    render=_render,
)

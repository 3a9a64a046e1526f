"""Failure study: indirect routing under injected path and relay outages.

The related work the paper builds on (RON, one-hop source routing, MONET)
is about *availability*: a one-hop detour recovers from most path failures.
The paper's throughput-probe mechanism masks failures for free - a dead
direct path cannot win (or even finish) the probe race - and the resilient
protocol (probe deadline, mid-transfer failover, transfer deadline) extends
that to paths that die after selection.  This module is the runner-integrated
study (`repro failures`) that measures both:

:func:`plan_failures` decomposes the study into fingerprinted
:class:`~repro.runner.plan.WorkUnit`\\ s cycling through the injection modes
(healthy, direct-link flap, relay crash, both - or any subset of them), and
:func:`run_failure_unit` executes one unit through
:func:`~repro.workloads.faulted.run_arm`: a direct-only control and a
selecting client on the same degraded scenario, emitting one
:class:`~repro.trace.records.FailureRecord` for
:mod:`repro.analysis.availability`.  Every random draw is derived from
per-unit seed-bank labels, so the study is byte-identical for any worker
count or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.resilience import recovery_time_of
from repro.core.session import SessionConfig
from repro.net.failures import (
    FaultWindow,
    OutageGenerator,
    merge_outage_plans,
    node_outage_plan,
)
from repro.net.topology import wan_link_name
from repro.trace.records import FailureRecord
from repro.util.validation import check_positive
from repro.workloads.faulted import RESILIENT_SESSION_CONFIG, run_arm
from repro.workloads.scenario import Scenario
from repro.workloads.studies import Study

__all__ = [
    "STUDY",
    "FAILURE_MODES",
    "FailureStudyParams",
    "failure_outage_plan",
    "plan_failures",
    "run_failure_unit",
]


#: Injection modes the study cycles through, one per repetition slot.
FAILURE_MODES = ("none", "link", "node", "both")


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

    def __post_init__(self) -> None:
        check_positive(self.link_mtbf, "link_mtbf")
        check_positive(self.link_mean_duration, "link_mean_duration")
        check_positive(self.node_mtbf, "node_mtbf")
        check_positive(self.node_mean_duration, "node_mean_duration")

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
) -> Dict[str, List[FaultWindow]]:
    """The per-link outage map one unit injects, drawn from stable labels.

    Link-flap outages depend only on ``(client, site)`` and relay-crash
    outages only on ``relay``, so every unit that shares a coordinate sees
    the *same* failure environment regardless of worker count or execution
    order - the property the runner's determinism contract requires.
    """
    if mode not in FAILURE_MODES:
        raise ValueError(f"unknown failure mode {mode!r}; expected {FAILURE_MODES}")
    horizon = scenario.spec.horizon
    plans: List[Dict[str, List[FaultWindow]]] = []
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
    config: SessionConfig = RESILIENT_SESSION_CONFIG,
    params: FailureStudyParams = FailureStudyParams(),
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
    study: str = "failures",
    modes: Sequence[str] = FAILURE_MODES,
):
    """Decompose the availability study into a fingerprinted campaign plan.

    Each client runs ``repetitions`` paired transfers at ``interval``
    spacing, cycling through ``modes`` (a non-empty selection from
    :data:`FAILURE_MODES`, all four by default); the offered set is the
    two adjacent relays of the client's seeded rotation (one when the
    scenario has a single relay), so failover always has a probed runner-up
    to fall back on.  The unit's injection mode rides in
    :attr:`~repro.runner.plan.WorkUnit.variant` and the failure process
    parameters in ``CampaignPlan.extra``.
    """
    from repro.runner.plan import CampaignPlan, WorkUnit

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    check_positive(interval, "interval")
    modes = tuple(modes)
    if not modes or not set(modes) <= set(FAILURE_MODES):
        raise ValueError(
            f"modes must be a non-empty selection from {FAILURE_MODES}, got {modes}"
        )
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
                    variant=modes[j % len(modes)],
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
    degraded = scenario.with_faults(outage_plan) if outage_plan else scenario
    ctrl, sel, columns = run_arm(degraded, config, unit)
    # Masking compares the arm against the control's pain, so overlap is
    # measured on the control's interval.
    overlap = any(
        o.overlaps(ctrl.requested_at, ctrl.completed_at)
        for outages in outage_plan.values()
        for o in outages
    )
    events = sel.recovery_events
    return FailureRecord(
        **columns,
        failure_mode=mode,
        n_failovers=sum(1 for e in events if e.kind == "failover"),
        n_reprobes=sum(1 for e in events if e.kind == "reprobe"),
        time_to_recover=recovery_time_of(events),
        outage_overlap=overlap,
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
    # A fixed tiny campaign: deterministic, covers every injection mode
    # twice per client, finishes in seconds.
    quick={"reps": 8},
    quick_help="tiny deterministic campaign (2 clients x 8 reps) for smoke runs",
    render=_render,
)

"""Chaos resilience study: mechanisms x fault families x intensities.

PR 4 asked "does failover mask a clean relay crash?"; this study asks the
harder question the overlay literature actually poses: how do the three
mechanisms we now have - the paper's probe-race **select**, the PR 4
resilient **failover** protocol, and PR 7's **stripe**-k - degrade under a
realistic fault taxonomy?  Every unit runs one mechanism arm against the
direct control on the same fault-injected scenario and emits one
:class:`~repro.trace.records.ChaosRecord`.

The grid: each repetition slot runs every (family, intensity) cell from
:mod:`repro.chaos.faults` (gray, flap, correlated, partition at mild and
severe, plus the ``none`` baseline), and each cell runs all three
mechanism arms over the *identical* fault environment - fault timing is
drawn from seed-bank labels that exclude the mechanism, so the comparison
is paired by construction and the whole study is byte-identical for any
worker count, engine mode or observability state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.faults import (
    FAULT_FAMILIES,
    FAULT_INTENSITIES,
    compile_fault_plan,
    degraded_seconds,
    plan_spans,
)
from repro.core.resilience import RecoveryEvent, ResilienceConfig, recovery_time_of
from repro.core.session import SessionConfig
from repro.net.failures import FaultWindow
from repro.net.topology import wan_link_name
from repro.obs.core import global_observer
from repro.stripe.blocks import DEFAULT_BLOCK_BYTES, StripeConfig
from repro.trace.records import ChaosRecord
from repro.util.validation import check_positive
from repro.workloads.scenario import Scenario
from repro.workloads.studies import STUDY_SESSION_CONFIG, Study

__all__ = [
    "STUDY",
    "CHAOS_MECHANISMS",
    "CHAOS_RESILIENCE",
    "CHAOS_SESSION_CONFIG",
    "ChaosStudyParams",
    "chaos_cells",
    "chaos_fault_plan",
    "parse_chaos_variant",
    "plan_chaos",
    "run_chaos_unit",
]

#: The three rival mechanisms compared on every fault cell.
CHAOS_MECHANISMS = ("select", "failover", "stripe")

#: Resilience settings for the failover arm (identical to the mHTTP
#: study's select arm - the PR 4 protocol); the select arm runs the same
#: deadlines with mid-transfer failover switched off.
CHAOS_RESILIENCE = ResilienceConfig(
    probe_deadline=30.0,
    failover=True,
    transfer_deadline=1800.0,
)

CHAOS_SESSION_CONFIG = dataclasses.replace(
    STUDY_SESSION_CONFIG, resilience=CHAOS_RESILIENCE
)


@dataclass(frozen=True)
class ChaosStudyParams:
    """Plan-level parameters of the chaos study (``CampaignPlan.extra``).

    Hashed into the campaign fingerprint, so runs with different stripe
    geometry or fault timing can never share a checkpoint.  Fault onset is
    uniform in ``[onset_delay_min, onset_delay_max]`` seconds after the
    unit starts - like the mHTTP crash model, sharp enough that every
    injected fault actually intersects the session it targets.
    """

    block_bytes: float = DEFAULT_BLOCK_BYTES
    window: int = 2
    max_copies: int = 2
    onset_delay_min: float = 4.0
    onset_delay_max: float = 30.0
    transfer_deadline: float = 1800.0

    def __post_init__(self) -> None:
        if self.onset_delay_min < 0.0 or self.onset_delay_max < self.onset_delay_min:
            raise ValueError(
                "onset delay bounds must satisfy 0 <= min <= max, got "
                f"[{self.onset_delay_min}, {self.onset_delay_max}]"
            )
        if self.transfer_deadline <= 0.0:
            raise ValueError("transfer_deadline must be positive")

    def stripe_config(self) -> StripeConfig:
        """The striped-session configuration all stripe arms run with."""
        return StripeConfig(
            block_bytes=self.block_bytes,
            window=self.window,
            max_copies=self.max_copies,
            transfer_deadline=self.transfer_deadline,
        )


def chaos_cells(
    families: Sequence[str] = FAULT_FAMILIES,
    intensities: Sequence[str] = FAULT_INTENSITIES,
) -> List[Tuple[str, str]]:
    """The (family, intensity) grid one repetition slot runs.

    ``none`` collapses to a single baseline cell (its intensity column is
    meaningless, pinned to the first requested intensity); every other
    family appears once per intensity, in request order.
    """
    bad = [f for f in families if f not in FAULT_FAMILIES]
    if bad:
        raise ValueError(f"unknown fault families {bad}; expected {FAULT_FAMILIES}")
    bad = [i for i in intensities if i not in FAULT_INTENSITIES]
    if bad:
        raise ValueError(f"unknown intensities {bad}; expected {FAULT_INTENSITIES}")
    if not families or not intensities:
        raise ValueError("need at least one family and one intensity")
    cells: List[Tuple[str, str]] = []
    for family in dict.fromkeys(families):
        if family == "none":
            cells.append(("none", intensities[0]))
        else:
            cells.extend((family, i) for i in dict.fromkeys(intensities))
    return cells


def parse_chaos_variant(variant: str) -> Tuple[str, str, str]:
    """Decode ``"failover+gray:severe"`` -> (mechanism, family, intensity)."""
    mechanism, sep, cell = variant.partition("+")
    if sep and mechanism in CHAOS_MECHANISMS:
        family, sep2, intensity = cell.partition(":")
        if sep2 and family in FAULT_FAMILIES and intensity in FAULT_INTENSITIES:
            return mechanism, family, intensity
    raise ValueError(
        f"malformed chaos variant {variant!r}; expected e.g. 'failover+gray:severe'"
    )


def chaos_fault_plan(
    scenario: Scenario,
    params: ChaosStudyParams,
    *,
    client: str,
    site: str,
    offered: Sequence[str],
    family: str,
    intensity: str,
    repetition: int,
    start_time: float,
) -> Dict[str, List[FaultWindow]]:
    """The per-link fault plan one unit injects, drawn from stable labels.

    The label path carries the full cell coordinate *except the mechanism*
    and the draw order is fixed, so the three mechanism arms of one cell
    see the identical fault environment regardless of worker count or
    execution order.
    """
    if family == "none":
        return {}
    rng = scenario.bank.generator("chaos", family, intensity, client, site, repetition)
    onset = start_time + float(
        rng.uniform(params.onset_delay_min, params.onset_delay_max)
    )
    return compile_fault_plan(
        family,
        intensity,
        direct_link=wan_link_name(site, client),
        overlay_link=wan_link_name(offered[0], client),
        egress_links=[wan_link_name(site, relay) for relay in offered],
        onset=onset,
    )


def plan_chaos(
    scenario: Scenario,
    *,
    repetitions: int,
    interval: float,
    k: int = 3,
    families: Sequence[str] = FAULT_FAMILIES,
    intensities: Sequence[str] = FAULT_INTENSITIES,
    config: SessionConfig = CHAOS_SESSION_CONFIG,
    params: ChaosStudyParams = ChaosStudyParams(),
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
    study: str = "chaos",
):
    """Decompose the chaos study into a fingerprinted campaign plan.

    Each client runs ``repetitions`` slots at ``interval`` spacing; every
    slot runs the full (family, intensity) grid, and every cell runs all
    three mechanism arms over the same ``k - 1`` relays, taken adjacently
    from the client's seeded rotation (so the primary relay - the gray /
    partition target - is stable across the slot).  The cell coordinate
    rides in :attr:`~repro.runner.plan.WorkUnit.variant` (e.g.
    ``"stripe+correlated:mild"``) and units dispatch through the
    ``"chaos"`` runner.
    """
    from repro.runner.plan import CampaignPlan, WorkUnit

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    check_positive(interval, "interval")
    if k < 2:
        raise ValueError(f"k must be >= 2 (direct plus >= 1 relay), got {k}")
    if k - 1 > len(scenario.relay_names):
        raise ValueError(
            f"k={k} needs {k - 1} relays; scenario deploys "
            f"{len(scenario.relay_names)}"
        )
    cells = chaos_cells(families, intensities)
    client_list = list(clients) if clients is not None else scenario.client_names
    units = []
    for client in client_list:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("chaos-rotation", client)
        rng.shuffle(rotation)
        for j in range(repetitions):
            offered = tuple(
                rotation[(j + i) % len(rotation)] for i in range(k - 1)
            )
            for family, intensity in cells:
                for mechanism in CHAOS_MECHANISMS:
                    units.append(
                        WorkUnit(
                            index=len(units),
                            study=study,
                            client=client,
                            site=site,
                            repetition=j,
                            start_time=j * interval,
                            offered=offered,
                            variant=f"{mechanism}+{family}:{intensity}",
                            runner="chaos",
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


def _stripe_recovery_time(events: Sequence[RecoveryEvent]) -> float:
    """Stripe analogue of :func:`recovery_time_of`: seconds from the first
    dead path to the re-dispatch (reissue) that answered it; NaN when no
    path died or nothing was reissued afterwards."""
    for i, event in enumerate(events):
        if event.kind == "path_dead":
            for later in events[i + 1 :]:
                if later.kind == "reissue":
                    return later.time - event.time
            return math.nan
    return math.nan


def run_chaos_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit,
    params: Optional[ChaosStudyParams],
) -> ChaosRecord:
    """Execute one chaos-study unit on a freshly fault-injected scenario.

    The direct control re-runs on the *same* faulted scenario, then the
    unit's mechanism arm runs over its offered relays.  The select arm is
    the failover arm with mid-transfer recovery switched off - identical
    deadlines, identical probe race - so any separation between the two
    columns is attributable to the recovery protocol alone.
    """
    if params is None:
        params = ChaosStudyParams()
    mechanism, family, intensity = parse_chaos_variant(unit.variant)
    plan = chaos_fault_plan(
        scenario,
        params,
        client=unit.client,
        site=unit.site,
        offered=unit.offered,
        family=family,
        intensity=intensity,
        repetition=unit.repetition,
        start_time=unit.start_time,
    )
    faulted = scenario.with_faults(plan) if plan else scenario
    spans = plan_spans(plan)

    obs = global_observer()
    if obs is not None:
        obs.count("chaos.units")
        obs.count(f"chaos.family.{family}")
        for link, windows in sorted(plan.items()):
            for w in windows:
                obs.span(
                    "fault",
                    link,
                    w.start,
                    w.end,
                    family=family,
                    intensity=intensity,
                    factor=w.factor,
                )

    control = faulted.universe(unit.start_time, config=config)
    ctrl = control.session.download_direct(unit.client, unit.site, faulted.resource)

    if mechanism in ("select", "failover"):
        arm_config = config
        if mechanism == "select":
            arm_config = dataclasses.replace(
                config,
                resilience=dataclasses.replace(config.resilience, failover=False),
            )
        selector = faulted.universe(
            unit.start_time,
            config=arm_config,
            noise_labels=(unit.study, unit.client, unit.site, unit.repetition),
        )
        sel = selector.session.download(
            unit.client, unit.site, faulted.resource, list(unit.offered)
        )
        events = sel.recovery_events
        interval = (sel.requested_at, sel.completed_at)
        mech_fields = dict(
            selected_via=sel.selected_via,
            selected_throughput=sel.transfer_throughput,
            end_to_end_throughput=sel.end_to_end_throughput,
            probe_overhead=sel.probe_overhead_seconds,
            outcome=sel.outcome.value,
            n_failovers=sum(1 for e in events if e.kind == "failover"),
            n_path_failures=0,
            bytes_received=sel.delivered,
            selected_duration=sel.duration,
            time_to_recover=recovery_time_of(events),
        )
    else:
        striper = faulted.universe(unit.start_time, config=config)
        res = striper.session.download_striped(
            unit.client,
            unit.site,
            faulted.resource,
            list(unit.offered),
            stripe=params.stripe_config(),
        )
        events = res.recovery_events
        interval = (res.requested_at, res.completed_at)
        mech_fields = dict(
            selected_via=None,
            # A stripe has no probe/bulk split: its one throughput is the
            # whole-session goodput, recorded in both columns.
            selected_throughput=res.end_to_end_throughput,
            end_to_end_throughput=res.end_to_end_throughput,
            probe_overhead=0.0,
            outcome=res.outcome.value,
            n_failovers=0,
            n_path_failures=len(res.failed_paths),
            bytes_received=res.delivered,
            selected_duration=res.duration,
            time_to_recover=_stripe_recovery_time(events),
        )

    downtime = degraded_seconds(spans, interval[0], interval[1])
    return ChaosRecord(
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        set_size=len(unit.offered),
        offered=unit.offered,
        direct_throughput=ctrl.end_to_end_throughput,
        file_bytes=ctrl.size,
        mechanism=mechanism,
        fault_family=family,
        intensity=intensity,
        stripe_k=len(unit.offered) + 1,
        direct_outcome=ctrl.outcome.value,
        direct_duration=ctrl.duration,
        fault_downtime=downtime,
        fault_overlap=downtime > 0.0,
        recovery_events=events,
        **mech_fields,
    )


def _arguments(parser: Any) -> None:
    parser.add_argument(
        "--reps",
        type=int,
        default=6,
        help="repetition slots per client (each runs the full fault grid)",
    )
    parser.add_argument(
        "--k",
        type=int,
        default=3,
        help="paths per session including direct (default 3)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=360.0,
        help="seconds between a client's repetition slots (default 360)",
    )
    parser.add_argument(
        "--families",
        default=",".join(FAULT_FAMILIES),
        help="comma-separated fault families to inject "
        f"(default {','.join(FAULT_FAMILIES)})",
    )
    parser.add_argument(
        "--intensities",
        default=",".join(FAULT_INTENSITIES),
        help="comma-separated fault intensities "
        f"(default {','.join(FAULT_INTENSITIES)})",
    )


def _plan(scenario: Scenario, args: Any) -> Any:
    return plan_chaos(
        scenario,
        repetitions=args.reps,
        interval=args.interval,
        k=args.k,
        families=args.families or FAULT_FAMILIES,
        intensities=args.intensities or FAULT_INTENSITIES,
        site=args.site,
        clients=args.clients,
    )


def _render(records: Sequence[Any]) -> str:
    from repro.analysis.chaos import render_chaos

    return render_chaos(records)


STUDY = Study(
    plan=_plan,
    run_unit=run_chaos_unit,
    arguments=_arguments,
    lists={"families": str, "intensities": str},
    # A fixed tiny campaign: the two acceptance families at one intensity,
    # every mechanism arm, finishes in seconds.
    quick={"reps": 1, "families": "none,gray,correlated", "intensities": "severe"},
    quick_help="tiny deterministic campaign (2 clients x 1 rep, gray+correlated "
    "at severe) for smoke runs",
    render=_render,
)

"""mHTTP striping study: striped transfers as a rival to select-one.

The paper's mechanism races probes over k paths and commits the bulk
transfer to the single winner.  The multi-path literature (mHTTP, MPTCP,
Tor conflux) suggests the opposite move: *use* the k paths, striping
disjoint byte-range blocks across all of them at once.  This study puts
the two mechanisms side by side on identical scenarios:

* **select-k** - the paper's probe race over the direct path plus k-1
  relays, with the PR 4 resilience layer (probe deadline, mid-transfer
  failover, transfer deadline) enabled;
* **stripe-k** - a :class:`~repro.stripe.session.StripedSession` over the
  same direct-plus-(k-1)-relay path set.

Each unit also runs the direct-only control on the same (possibly
failure-injected) scenario, and emits one
:class:`~repro.trace.records.StripeRecord` row.  Failure injection cycles
``none`` / ``node`` by repetition slot: ``node`` crashes the unit's
primary relay *during the transfer window* - crash timing is drawn from
stable per-slot seed-bank labels, so select-k and stripe-k face the exact
same outage and the whole study is byte-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.resilience import ResilienceConfig
from repro.core.session import SessionConfig
from repro.net.failures import FaultWindow, node_outage_plan
from repro.stripe.blocks import DEFAULT_BLOCK_BYTES, StripeConfig
from repro.trace.records import StripeRecord
from repro.util.units import kb
from repro.util.validation import check_positive
from repro.workloads.scenario import Scenario
from repro.workloads.studies import STUDY_SESSION_CONFIG, Study

__all__ = [
    "STUDY",
    "MHTTP_MODES",
    "MHTTP_MECHANISMS",
    "MHTTP_RESILIENCE",
    "MHTTP_SESSION_CONFIG",
    "MhttpStudyParams",
    "mhttp_outage_plan",
    "parse_mhttp_variant",
    "plan_mhttp",
    "run_mhttp_unit",
]

#: Injection modes the study cycles through, one per repetition slot.
MHTTP_MODES = ("none", "node")

#: The two rival mechanisms compared on every (client, slot, k) coordinate.
MHTTP_MECHANISMS = ("select", "stripe")

#: Resilience settings for the select-one arm - the PR 4 failure model the
#: stripe is measured against (identical to the availability study's).
MHTTP_RESILIENCE = ResilienceConfig(
    probe_deadline=30.0,
    failover=True,
    transfer_deadline=1800.0,
)

MHTTP_SESSION_CONFIG = dataclasses.replace(
    STUDY_SESSION_CONFIG, resilience=MHTTP_RESILIENCE
)


@dataclass(frozen=True)
class MhttpStudyParams:
    """Plan-level parameters of the mHTTP study (``CampaignPlan.extra``).

    Hashed into the campaign fingerprint, so runs with different stripe
    geometry or crash processes can never share a checkpoint.

    The crash model is deliberately sharper than the availability study's
    Poisson processes: the ``node`` mode crashes the unit's primary relay
    at a *seeded offset inside the transfer window* for a fixed outage
    length, guaranteeing every injected failure actually intersects the
    session it targets (Poisson timing mostly misses short transfers,
    which starves the tail-latency comparison of affected samples).
    """

    block_bytes: float = DEFAULT_BLOCK_BYTES
    window: int = 2
    max_copies: int = 2
    #: Crash onset is uniform in [min, max] seconds after the unit starts.
    crash_delay_min: float = 4.0
    crash_delay_max: float = 30.0
    crash_duration: float = 240.0
    transfer_deadline: float = 1800.0

    def __post_init__(self) -> None:
        if self.crash_delay_min < 0.0 or self.crash_delay_max < self.crash_delay_min:
            raise ValueError(
                "crash delay bounds must satisfy 0 <= min <= max, got "
                f"[{self.crash_delay_min}, {self.crash_delay_max}]"
            )
        check_positive(self.crash_duration, "crash_duration")
        # Validate the stripe geometry at plan time, not inside every unit.
        self.stripe_config()

    def stripe_config(self) -> StripeConfig:
        """The striped-session configuration all stripe units run with."""
        return StripeConfig(
            block_bytes=self.block_bytes,
            window=self.window,
            max_copies=self.max_copies,
            transfer_deadline=self.transfer_deadline,
        )


def parse_mhttp_variant(variant: str) -> Tuple[str, int, str]:
    """Decode a unit variant like ``"stripe3+node"`` -> (mechanism, k, mode).

    The variant string is the unit's full mechanism coordinate: which rival
    runs, over how many paths (direct included), under which injection.
    """
    head, sep, mode = variant.partition("+")
    if sep and mode in MHTTP_MODES:
        for mechanism in MHTTP_MECHANISMS:
            if head.startswith(mechanism):
                suffix = head[len(mechanism) :]
                if suffix.isdigit() and int(suffix) >= 2:
                    return mechanism, int(suffix), mode
    raise ValueError(
        f"malformed mhttp variant {variant!r}; expected e.g. 'stripe3+node'"
    )


def mhttp_outage_plan(
    scenario: Scenario,
    params: MhttpStudyParams,
    *,
    client: str,
    site: str,
    relay: str,
    mode: str,
    start_time: float,
) -> Dict[str, List[FaultWindow]]:
    """The per-link outage map one unit injects, drawn from stable labels.

    ``node`` mode crashes ``relay`` (every WAN segment through it) at
    ``start_time`` plus a seeded delay.  The label path depends only on
    ``(client, site, relay)`` and the draw order is fixed, so every unit in
    the same repetition slot - select and stripe, any k sharing the primary
    relay - sees the *identical* failure environment regardless of worker
    count or execution order.
    """
    if mode not in MHTTP_MODES:
        raise ValueError(f"unknown mhttp mode {mode!r}; expected {MHTTP_MODES}")
    if mode == "none":
        return {}
    rng = scenario.bank.generator("mhttp-crash", client, site, relay)
    delay = float(
        rng.uniform(params.crash_delay_min, params.crash_delay_max)
    )
    outage = FaultWindow(start=start_time + delay, duration=params.crash_duration)
    return node_outage_plan(scenario.topology.links, relay, [outage])


def plan_mhttp(
    scenario: Scenario,
    *,
    repetitions: int,
    interval: float,
    ks: Sequence[int] = (2, 3, 4),
    config: SessionConfig = MHTTP_SESSION_CONFIG,
    params: MhttpStudyParams = MhttpStudyParams(),
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
    study: str = "mhttp",
):
    """Decompose the striping study into a fingerprinted campaign plan.

    Each client runs ``repetitions`` slots at ``interval`` spacing,
    alternating injection modes; every slot runs both mechanisms at every
    ``k`` (paths including direct) over the same k-1 relays, taken
    adjacently from the client's seeded rotation.  The mechanism coordinate
    rides in :attr:`~repro.runner.plan.WorkUnit.variant` (e.g.
    ``"stripe3+node"``) and units dispatch through the ``"mhttp"`` runner.
    """
    from repro.runner.plan import CampaignPlan, WorkUnit

    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    check_positive(interval, "interval")
    k_list = sorted(set(int(k) for k in ks))
    if not k_list or k_list[0] < 2:
        raise ValueError(f"ks must be integers >= 2, got {list(ks)}")
    if k_list[-1] - 1 > len(scenario.relay_names):
        raise ValueError(
            f"k={k_list[-1]} needs {k_list[-1] - 1} relays; scenario deploys "
            f"{len(scenario.relay_names)}"
        )
    client_list = list(clients) if clients is not None else scenario.client_names
    units = []
    for client in client_list:
        rotation = list(scenario.relay_names)
        rng = scenario.bank.generator("mhttp-rotation", client)
        rng.shuffle(rotation)
        for j in range(repetitions):
            mode = MHTTP_MODES[j % len(MHTTP_MODES)]
            for k in k_list:
                # Adjacent slice of the rotation: the k=2 primary relay is
                # a prefix of every larger set, so one crash coordinate
                # degrades all of the slot's units identically.
                offered = tuple(
                    rotation[(j + i) % len(rotation)] for i in range(k - 1)
                )
                for mechanism in MHTTP_MECHANISMS:
                    units.append(
                        WorkUnit(
                            index=len(units),
                            study=study,
                            client=client,
                            site=site,
                            repetition=j,
                            start_time=j * interval,
                            offered=offered,
                            variant=f"{mechanism}{k}+{mode}",
                            runner="mhttp",
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


def run_mhttp_unit(
    scenario: Scenario,
    config: SessionConfig,
    unit,
    params: Optional[MhttpStudyParams],
) -> StripeRecord:
    """Execute one mHTTP-study unit on a freshly degraded scenario.

    The direct control re-runs on the *same* degraded scenario, then the
    unit's mechanism runs over its offered relays: select-one with the
    resilient protocol, or a striped session.  The crashed relay in
    ``node`` mode is the primary offered relay - for select-one the likely
    probe winner, for the stripe a full lane of payload - which is exactly
    the head-to-head the study exists for.
    """
    if params is None:
        params = MhttpStudyParams()
    mechanism, k, mode = parse_mhttp_variant(unit.variant)
    if len(unit.offered) != k - 1:
        raise ValueError(
            f"unit variant {unit.variant!r} wants {k - 1} relays but the "
            f"offered set has {len(unit.offered)}"
        )
    outage_plan = mhttp_outage_plan(
        scenario,
        params,
        client=unit.client,
        site=unit.site,
        relay=unit.offered[0],
        mode=mode,
        start_time=unit.start_time,
    )
    degraded = scenario.with_faults(outage_plan) if outage_plan else scenario
    all_outages = [o for outages in outage_plan.values() for o in outages]

    control = degraded.universe(unit.start_time, config=config)
    ctrl = control.session.download_direct(unit.client, unit.site, degraded.resource)

    if mechanism == "select":
        selector = degraded.universe(
            unit.start_time,
            config=config,
            noise_labels=(unit.study, unit.client, unit.site, unit.repetition),
        )
        sel = selector.session.download(
            unit.client, unit.site, degraded.resource, list(unit.offered)
        )
        events = sel.recovery_events
        interval = (sel.requested_at, sel.completed_at)
        mech_fields = dict(
            selected_via=sel.selected_via,
            selected_throughput=sel.transfer_throughput,
            end_to_end_throughput=sel.end_to_end_throughput,
            probe_overhead=sel.probe_overhead_seconds,
            outcome=sel.outcome.value,
            n_path_failures=sum(1 for e in events if e.kind == "failover"),
            bytes_received=sel.delivered,
            selected_duration=sel.duration,
        )
    else:
        striper = degraded.universe(unit.start_time, config=config)
        res = striper.session.download_striped(
            unit.client,
            unit.site,
            degraded.resource,
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
            n_path_failures=len(res.failed_paths),
            bytes_received=res.delivered,
            selected_duration=res.duration,
            block_bytes=res.block_bytes,
            n_blocks=res.n_blocks,
            wasted_bytes=res.wasted_bytes,
            n_reissues=res.n_reissues,
            n_duplicate_blocks=res.n_duplicate_blocks,
            bytes_by_path=res.bytes_by_path,
        )

    overlap = any(o.overlaps(*interval) for o in all_outages)
    return StripeRecord(
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
        stripe_k=k,
        failure_mode=mode,
        direct_outcome=ctrl.outcome.value,
        direct_duration=ctrl.duration,
        outage_overlap=overlap,
        recovery_events=events,
        **mech_fields,
    )


def _arguments(parser: Any) -> None:
    parser.add_argument(
        "--reps",
        type=int,
        default=8,
        help="repetition slots per client (cycling healthy/node-crash injection)",
    )
    parser.add_argument(
        "--ks",
        default="2,3,4",
        help="comma-separated stripe widths, paths including direct (default 2,3,4)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=360.0,
        help="seconds between a client's repetition slots (default 360)",
    )
    parser.add_argument(
        "--block-kb", type=float, default=512.0,
        help="stripe block size in kB (default 512)",
    )
    parser.add_argument(
        "--window", type=int, default=2,
        help="per-path in-flight block window (default 2)",
    )
    parser.add_argument(
        "--crash-duration", type=float, default=240.0,
        help="node-mode relay outage length, seconds (default 240)",
    )


def _plan(scenario: Scenario, args: Any) -> Any:
    params = MhttpStudyParams(
        block_bytes=kb(args.block_kb),
        window=args.window,
        crash_duration=args.crash_duration,
    )
    return plan_mhttp(
        scenario,
        repetitions=args.reps,
        interval=args.interval,
        ks=args.ks or (),
        params=params,
        site=args.site,
        clients=args.clients,
    )


def _render(records: Sequence[Any]) -> str:
    from repro.analysis.mhttp import render_mhttp

    return render_mhttp(records)


STUDY = Study(
    plan=_plan,
    run_unit=run_mhttp_unit,
    arguments=_arguments,
    lists={"ks": int},
    # A fixed tiny campaign: both mechanisms and both injection modes once
    # per client at k=2, finishes in seconds.
    quick={"reps": 2, "ks": "2"},
    quick_help="tiny deterministic campaign (2 clients x 2 reps, k=2) for smoke runs",
    render=_render,
)

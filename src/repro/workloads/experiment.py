"""Study drivers: the paper's two measurement campaigns, simulated.

Each *repetition* is a paired measurement, exactly as deployed on PlanetLab
(§2.2): a control client downloads the whole file over the direct path while
the selecting client probes its candidate paths and downloads over the
winner.  The pair runs in two independent universes opened at the same
simulation time on the same capacity traces, so both observe identical
network conditions without interfering.

:class:`Section2Study`
    22 international clients x 4 web sites, one candidate relay per transfer
    (rotating through the deployed relays, seeded per client), a transfer
    every 6 minutes for 10 hours.  Feeds Figs. 1-5 and Tables I-II.
:class:`Section4Study`
    Duke/Italy/Sweden against eBay, a transfer every 30 seconds for 6 hours,
    candidate sets drawn by a selection policy (uniform random k-subsets for
    the paper's Fig. 6/Table III; any policy for the ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Optional, Sequence

from repro.core.policy import SelectionPolicy
from repro.core.probe import ProbeMode
from repro.core.session import SessionConfig
from repro.http.transfer import TcpParams
from repro.trace.records import TransferRecord
from repro.trace.store import TraceStore
from repro.util.units import MINUTE
from repro.workloads.scenario import Scenario, ScenarioSpec
from repro.workloads.studies import STUDY_SESSION_CONFIG, Study

__all__ = [
    "SECTION2_STUDY",
    "SECTION4_STUDY",
    "Section2Study",
    "Section4Study",
    "run_paired_transfer",
    "run_paired_unit",
    "run_interfering_pair",
    "SECTION4_SESSION_CONFIG",
]

#: §4 sessions probe candidates *sequentially*: the paper describes the
#: multi-relay selection as "perform n preliminary download tests and see
#: which produces the best throughput".  Racing dozens of probes
#: concurrently would let them congest the client's own access link and
#: bias selection toward the lowest-latency path (the ablation bench A3
#: demonstrates exactly that failure mode).
SECTION4_SESSION_CONFIG = SessionConfig(
    probe_mode=ProbeMode.SEQUENTIAL,
    tcp=TcpParams(max_window=131_072.0),
    probe_noise_sigma=0.10,
)


def run_paired_transfer(
    scenario: Scenario,
    *,
    study: str,
    client: str,
    site: str,
    repetition: int,
    start_time: float,
    offered: Sequence[str],
    config: SessionConfig = STUDY_SESSION_CONFIG,
) -> TransferRecord:
    """Run one control + selector pair and return its record.

    This is the atomic measurement used by every study and example: open two
    universes at ``start_time``, run the direct control in one and the
    selecting session (probing ``offered`` relays) in the other.
    """
    control = scenario.universe(start_time, config=config)
    ctrl_result = control.session.download_direct(client, site, scenario.resource)

    selector = scenario.universe(
        start_time, config=config, noise_labels=(study, client, site, repetition)
    )
    sel_result = selector.session.download(client, site, scenario.resource, list(offered))

    profile = scenario.profiles[client]
    return TransferRecord(
        study=study,
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


def run_interfering_pair(
    scenario: Scenario,
    *,
    study: str,
    client: str,
    site: str,
    repetition: int,
    start_time: float,
    offered: Sequence[str],
    config: SessionConfig = STUDY_SESSION_CONFIG,
) -> TransferRecord:
    """One paired measurement the way PlanetLab actually ran it.

    The paper's two client processes executed *concurrently on the same
    node* (§2.2), so the control download and the selector's probes/bulk
    share the client's access link and interfere.  This runner reproduces
    that: both live in one universe; the control's full GET is issued
    first (non-blocking), then the selecting session runs, then the
    control is driven to completion.

    Compare against :func:`run_paired_transfer` (isolated universes) to
    quantify the measurement bias the paper's methodology accepts -
    ablation bench A11.
    """
    from repro.http.messages import HttpRequest
    from repro.http.transfer import issue_download

    universe = scenario.universe(
        start_time, config=config, noise_labels=(study, client, site, repetition)
    )
    direct_path = scenario.builder.direct(client, site)
    control_transfer = issue_download(
        universe.network,
        direct_path.route,
        direct_path.server,
        HttpRequest(host=site, path=scenario.resource),
        tcp=config.tcp,
        name="control-direct",
    )

    sel_result = universe.session.download(client, site, scenario.resource, list(offered))
    universe.network.run_to_completion(control_transfer.flow)

    profile = scenario.profiles[client]
    return TransferRecord(
        study=study,
        client=client,
        site=site,
        repetition=repetition,
        start_time=start_time,
        set_size=len(offered),
        offered=tuple(offered),
        selected_via=sel_result.selected_via,
        direct_throughput=control_transfer.throughput(),
        selected_throughput=sel_result.transfer_throughput,
        end_to_end_throughput=sel_result.end_to_end_throughput,
        probe_overhead=sel_result.probe_overhead_seconds,
        file_bytes=sel_result.size,
        direct_class=profile.throughput_class.value,
        direct_variability=profile.variability.value,
    )


def _execute(
    plan: Any,
    scenario: Scenario,
    *,
    checkpoint_every: Optional[int] = None,
    max_retries: Optional[int] = None,
    **kwargs: Any,
) -> TraceStore:
    """Run a whole plan through the campaign runner (``None`` = its default)."""
    from repro.runner.pool import DEFAULT_CHECKPOINT_EVERY, DEFAULT_MAX_RETRIES, execute_plan

    result = execute_plan(
        plan,
        scenario=scenario,
        checkpoint_every=(
            DEFAULT_CHECKPOINT_EVERY if checkpoint_every is None else checkpoint_every
        ),
        max_retries=DEFAULT_MAX_RETRIES if max_retries is None else max_retries,
        **kwargs,
    )
    assert result.store is not None  # full plan: merge cannot be partial
    return result.store


@dataclass
class Section2Study:
    """The §2-3 campaign: one rotating candidate relay per transfer.

    Parameters
    ----------
    scenario:
        A :meth:`~repro.workloads.scenario.ScenarioSpec.section2` scenario.
    repetitions:
        Transfers per (client, site); the paper ran 100 (every 6 min, 10 h).
    interval:
        Seconds between consecutive transfers of one client.
    config:
        Client mechanism parameters (probe size, mode, TCP).
    """

    scenario: Scenario
    repetitions: int = 100
    interval: float = 6.0 * MINUTE
    config: SessionConfig = STUDY_SESSION_CONFIG

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.interval <= 0.0:
            raise ValueError("interval must be positive")
        needed = self.repetitions * self.interval
        if needed > self.scenario.spec.horizon:
            raise ValueError(
                f"schedule needs {needed:.0f}s but scenario horizon is "
                f"{self.scenario.spec.horizon:.0f}s"
            )

    def plan(
        self,
        *,
        sites: Optional[Sequence[str]] = None,
        clients: Optional[Sequence[str]] = None,
    ):
        """Decompose the campaign into a deterministic work-unit plan."""
        from repro.runner.plan import plan_section2

        return plan_section2(
            self.scenario,
            repetitions=self.repetitions,
            interval=self.interval,
            config=self.config,
            sites=sites,
            clients=clients,
        )

    def run(
        self,
        *,
        sites: Optional[Sequence[str]] = None,
        clients: Optional[Sequence[str]] = None,
        jobs: int = 1,
        checkpoint=None,
        resume: bool = False,
        checkpoint_every: Optional[int] = None,
        progress: bool = False,
        unit_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> TraceStore:
        """Run the campaign and return all paired records.

        Every execution goes through the campaign runner
        (:mod:`repro.runner`): ``jobs=1`` is the serial path, larger values
        fan the independent paired measurements out across processes with
        byte-identical output.  ``checkpoint``/``resume`` enable incremental
        shard persistence (see :mod:`repro.runner.checkpoint`).
        """
        return _execute(
            self.plan(sites=sites, clients=clients),
            self.scenario,
            jobs=jobs,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_every=checkpoint_every,
            progress=progress,
            unit_timeout=unit_timeout,
            max_retries=max_retries,
        )


@dataclass
class Section4Study:
    """The §4 campaign: policy-driven candidate sets, rapid transfers.

    Parameters
    ----------
    scenario:
        A :meth:`~repro.workloads.scenario.ScenarioSpec.section4` scenario.
    repetitions:
        Transfers per (client, configuration); the paper ran 720 (every
        30 s for 6 h).
    interval:
        Seconds between consecutive transfers of one client.
    config:
        Client mechanism parameters.
    """

    scenario: Scenario
    repetitions: int = 720
    interval: float = 30.0
    config: SessionConfig = SECTION4_SESSION_CONFIG

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.interval <= 0.0:
            raise ValueError("interval must be positive")
        needed = self.repetitions * self.interval
        if needed > self.scenario.spec.horizon:
            raise ValueError(
                f"schedule needs {needed:.0f}s but scenario horizon is "
                f"{self.scenario.spec.horizon:.0f}s"
            )

    def run_policy(
        self,
        policy: SelectionPolicy,
        *,
        study: str = "section4",
        site: str = "eBay",
        clients: Optional[Sequence[str]] = None,
        set_size_label: Optional[int] = None,
        jobs: int = 1,
    ) -> TraceStore:
        """Run one policy for every client; returns all paired records.

        ``set_size_label`` overrides the recorded ``set_size`` (useful when a
        policy's nominal k differs from the offered count); by default the
        actual offered-set size is recorded.

        Stateless policies (those that never override
        :meth:`~repro.core.policy.SelectionPolicy.observe`) are decomposed
        into a work-unit plan and may run on ``jobs`` processes; adaptive
        policies form a sequential chain and only support ``jobs=1``.
        """
        from repro.runner.plan import plan_section4_policy, policy_is_stateless

        if policy_is_stateless(policy):
            plan = plan_section4_policy(
                self.scenario,
                policy,
                repetitions=self.repetitions,
                interval=self.interval,
                config=self.config,
                study=study,
                site=site,
                clients=clients,
                set_size_label=set_size_label,
            )
            return _execute(plan, self.scenario, jobs=jobs)
        if jobs != 1:
            raise ValueError(
                f"policy {policy.name!r} adapts to feedback; its campaign is "
                "sequential and cannot run with jobs > 1"
            )
        clients = list(clients) if clients is not None else self.scenario.client_names
        full_set = self.scenario.relay_names
        store = TraceStore()
        for client in clients:
            rng = self.scenario.bank.generator("policy", study, policy.name, client)
            for j in range(self.repetitions):
                start = j * self.interval
                offered = policy.candidates(client, site, full_set, rng, now=start)
                record = run_paired_transfer(
                    self.scenario,
                    study=study,
                    client=client,
                    site=site,
                    repetition=j,
                    start_time=start,
                    offered=offered,
                    config=self.config,
                )
                if set_size_label is not None:
                    record = TransferRecord(
                        **{**record.to_dict(), "set_size": set_size_label,
                           "offered": tuple(record.offered)}
                    )
                policy.observe(
                    client,
                    site,
                    offered,
                    record.selected_via,
                    throughput=record.selected_throughput,
                )
                store.append(record)
        return store

    def plan_random_set_sweep(
        self,
        k_values: Iterable[int],
        *,
        site: str = "eBay",
        clients: Optional[Sequence[str]] = None,
    ):
        """Decompose the Fig. 6 sweep into a deterministic work-unit plan."""
        from repro.runner.plan import plan_section4_sweep

        return plan_section4_sweep(
            self.scenario,
            k_values,
            repetitions=self.repetitions,
            interval=self.interval,
            config=self.config,
            site=site,
            clients=clients,
        )

    def run_random_set_sweep(
        self,
        k_values: Iterable[int],
        *,
        site: str = "eBay",
        clients: Optional[Sequence[str]] = None,
        jobs: int = 1,
        checkpoint=None,
        resume: bool = False,
        checkpoint_every: Optional[int] = None,
        progress: bool = False,
        unit_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> TraceStore:
        """The paper's Fig. 6 sweep: uniform random sets of each size k.

        Runs through the campaign runner; see :meth:`Section2Study.run` for
        the execution keywords.  The candidate sets are pre-drawn by the
        planner with the serial draw order, so output is byte-identical for
        every ``jobs`` value.
        """
        return _execute(
            self.plan_random_set_sweep(k_values, site=site, clients=clients),
            self.scenario,
            jobs=jobs,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_every=checkpoint_every,
            progress=progress,
            unit_timeout=unit_timeout,
            max_retries=max_retries,
        )


# --------------------------------------------------------------------------- #
# registry entries (repro.workloads.studies)
# --------------------------------------------------------------------------- #
def run_paired_unit(
    scenario: Scenario, config: SessionConfig, unit: Any, extra: Optional[Any] = None
) -> TransferRecord:
    """Execute one §2/§4 work unit: a paired transfer.

    A policy run that overrides the recorded set size carries it as the
    unit's ``set_size_label``.  The §2/§4 plans have no ``extra``.
    """
    record = run_paired_transfer(
        scenario,
        study=unit.study,
        client=unit.client,
        site=unit.site,
        repetition=unit.repetition,
        start_time=unit.start_time,
        offered=list(unit.offered),
        config=config,
    )
    if unit.set_size_label is not None:
        record = replace(record, set_size=unit.set_size_label)
    return record


def _section2_arguments(parser: Any) -> None:
    parser.add_argument("--reps", type=int, default=30, help="transfers per client")


def _plan_section2(scenario: Scenario, args: Any) -> Any:
    study = Section2Study(scenario, repetitions=args.reps)
    return study.plan(sites=args.sites, clients=args.clients)


def _section4_arguments(parser: Any) -> None:
    parser.add_argument("--reps", type=int, default=40, help="transfers per set size")
    parser.add_argument(
        "--set-sizes",
        default="1,2,4,6,10,16,24,35",
        help="comma-separated random-set sizes",
    )


def _plan_section4(scenario: Scenario, args: Any) -> Any:
    if not args.set_sizes:
        raise ValueError("--set-sizes needs at least one size")
    study = Section4Study(scenario, repetitions=args.reps)
    return study.plan_random_set_sweep(args.set_sizes)


def _section4_spec(sites: Any) -> ScenarioSpec:
    return ScenarioSpec.section4()


SECTION2_STUDY = Study(
    plan=_plan_section2,
    run_unit=run_paired_unit,
    arguments=_section2_arguments,
    site_flag="sites",
)

SECTION4_STUDY = Study(
    plan=_plan_section4,
    run_unit=run_paired_unit,
    arguments=_section4_arguments,
    lists={"set_sizes": int},
    site_flag=None,
    client_subset=False,
    spec=_section4_spec,
)

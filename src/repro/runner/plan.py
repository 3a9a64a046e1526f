"""Campaign planning: decompose a study into a deterministic work-unit stream.

The executor (:mod:`repro.runner.pool`) parallelises campaigns by treating
them as a flat sequence of independent :class:`WorkUnit`\\ s.  Determinism
rests on three properties established here, *before* any worker starts:

1. **Total order.**  Units are enumerated in exactly the order the legacy
   serial loops visited them (clients outer, sites inner for §2; set sizes
   outer for the §4 sweep) and carry their position as :attr:`WorkUnit.index`.
   The merged store is sorted by that index, so the output is byte-identical
   for any worker count, dispatch order, or shard layout.
2. **Pre-drawn randomness.**  Everything random about a unit - the §2 relay
   rotation, the §4 candidate sets - is drawn at planning time from the
   scenario's :class:`~repro.util.rng.SeedBank`, consuming the exact label
   paths and stream positions the serial code used.  Workers receive fully
   materialised units and derive any remaining noise from stable
   ``noise_labels`` (see :func:`repro.workloads.experiment.run_paired_transfer`),
   never from execution order.
3. **Fingerprint.**  :meth:`CampaignPlan.fingerprint` hashes the scenario
   spec, root seed, session config and every unit id.  Checkpoints record it
   and refuse to resume a campaign whose plan has drifted.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.policy import SelectionPolicy
from repro.core.resilience import ResilienceConfig
from repro.core.session import SessionConfig
from repro.workloads.scenario import Scenario, ScenarioSpec

__all__ = [
    "WorkUnit",
    "CampaignPlan",
    "plan_section2",
    "plan_section4_policy",
    "plan_section4_sweep",
    "policy_is_stateless",
    "section2_relay_rotation",
]


def _canonical(obj: Any) -> str:
    """Stable JSON rendering used by unit ids and fingerprints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot canonicalise {type(obj)!r} for hashing")


def _config_payload(config: SessionConfig) -> dict:
    """Fingerprint rendering of the session config.

    A default (legacy-equivalent) resilience block is omitted so that
    campaigns planned before the resilience layer existed keep their
    fingerprints - the default config is behaviourally byte-identical, and
    stamping it into the hash would orphan every existing checkpoint for
    no reason.  Any non-default resilience setting *is* hashed.
    """
    d = dataclasses.asdict(config)
    if d.get("resilience") == dataclasses.asdict(ResilienceConfig()):
        del d["resilience"]
    return d


@dataclass(frozen=True)
class WorkUnit:
    """One atomic paired measurement, fully determined at planning time.

    ``index`` is the unit's position in the serial execution order and the
    merge sort key; everything else is the argument list of
    :func:`~repro.workloads.experiment.run_paired_transfer` plus the optional
    recorded-set-size override used by policy runs.
    """

    index: int
    study: str
    client: str
    site: str
    repetition: int
    start_time: float
    offered: Tuple[str, ...]
    set_size_label: Optional[int] = None
    #: Study-specific discriminator (e.g. the failure study's injection
    #: mode); ``None`` for the classic §2/§4 campaigns.
    variant: Optional[str] = None
    #: Registry name of the study that executes the unit (e.g. ``"mhttp"``);
    #: ``None`` dispatches by ``study`` instead (see
    #: :func:`repro.workloads.studies.unit_runner`).
    runner: Optional[str] = None

    @property
    def unit_id(self) -> str:
        """Content hash of the unit (independent of its plan position)."""
        payload_dict = {
            "study": self.study,
            "client": self.client,
            "site": self.site,
            "repetition": self.repetition,
            "start_time": repr(self.start_time),
            "offered": list(self.offered),
            "set_size_label": self.set_size_label,
        }
        # Variant-free (and runner-free) units hash exactly as they did
        # before those fields existed, keeping historical checkpoints
        # resumable.
        if self.variant is not None:
            payload_dict["variant"] = self.variant
        if self.runner is not None:
            payload_dict["runner"] = self.runner
        payload = _canonical(payload_dict)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> int:
        """The plan's total order (identical to the serial execution order)."""
        return self.index


@dataclass(frozen=True)
class CampaignPlan:
    """A study decomposed into an ordered tuple of work units.

    The plan names the scenario it was made against (spec + root seed) and
    carries the session config and study parameters.  The executor hands
    workers the scenario itself, not the spec: a plan run on a faulted copy
    of its scenario (same spec and seed) must execute on that copy, and
    rebuilding from the spec would silently drop the faults.  The spec and
    seed still fingerprint the plan and guard against running it on an
    unrelated scenario.
    """

    study: str
    scenario_spec: ScenarioSpec
    seed: int
    config: SessionConfig
    units: Tuple[WorkUnit, ...]
    #: Study-specific plan-level parameters (a dataclass), shipped to every
    #: worker and hashed into the fingerprint; ``None`` for §2/§4 plans.
    extra: Optional[Any] = None

    def __post_init__(self) -> None:
        for pos, unit in enumerate(self.units):
            if unit.index != pos:
                raise ValueError(
                    f"unit at position {pos} carries index {unit.index}; "
                    "plan indices must be the serial execution order"
                )

    def __len__(self) -> int:
        return len(self.units)

    def fingerprint(self) -> str:
        """Hash identifying the campaign: spec + seed + config + unit ids.

        Any drift in the scenario (catalogues, calibration constants,
        horizon), the root seed, the client mechanism config, or the unit
        stream (repetitions, sites, offered sets, ordering) changes the
        fingerprint, which is exactly the condition under which resuming a
        checkpoint would silently mix incompatible measurements.
        """
        payload_dict = {
            "version": 1,
            "study": self.study,
            "seed": self.seed,
            "scenario": dataclasses.asdict(self.scenario_spec),
            "config": _config_payload(self.config),
            "units": [u.unit_id for u in self.units],
        }
        # Extra-free plans hash exactly as version 1 always did.
        if self.extra is not None:
            payload_dict["extra"] = dataclasses.asdict(self.extra)
        payload = _canonical(payload_dict)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# planners
# --------------------------------------------------------------------------- #
def section2_relay_rotation(scenario: Scenario, client: str) -> List[str]:
    """The seeded per-client order in which relays take the indirect path.

    This is the single source of truth for the §2 rotation; the study's
    legacy method delegates here so planner and serial path cannot diverge.
    """
    relays = list(scenario.relay_names)
    rng = scenario.bank.generator("rotation", client)
    rng.shuffle(relays)
    return relays


def plan_section2(
    scenario: Scenario,
    *,
    repetitions: int,
    interval: float,
    config: SessionConfig,
    sites: Optional[Sequence[str]] = None,
    clients: Optional[Sequence[str]] = None,
    study: str = "section2",
) -> CampaignPlan:
    """Decompose the §2-3 campaign (rotating single relay) into work units."""
    site_list = list(sites) if sites is not None else scenario.site_names
    client_list = list(clients) if clients is not None else scenario.client_names
    units: List[WorkUnit] = []
    for client in client_list:
        rotation = section2_relay_rotation(scenario, client)
        for site in site_list:
            for j in range(repetitions):
                units.append(
                    WorkUnit(
                        index=len(units),
                        study=study,
                        client=client,
                        site=site,
                        repetition=j,
                        start_time=j * interval,
                        offered=(rotation[j % len(rotation)],),
                    )
                )
    return CampaignPlan(
        study=study,
        scenario_spec=scenario.spec,
        seed=scenario.bank.root_seed,
        config=config,
        units=tuple(units),
    )


def policy_is_stateless(policy: SelectionPolicy) -> bool:
    """True when the policy ignores per-transfer feedback.

    A policy that overrides :meth:`SelectionPolicy.observe` adapts its
    candidate sets to earlier selection outcomes, so its campaign is a
    sequential chain and cannot be decomposed into independent units.
    Stateless policies (the paper's §2-4 configurations) draw candidates
    from the seeded stream alone, so the planner can replay the draws.
    """
    return type(policy).observe is SelectionPolicy.observe


def plan_section4_policy(
    scenario: Scenario,
    policy: SelectionPolicy,
    *,
    repetitions: int,
    interval: float,
    config: SessionConfig,
    study: str = "section4",
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
    set_size_label: Optional[int] = None,
) -> CampaignPlan:
    """Decompose one stateless-policy run into work units.

    Candidate sets are pre-drawn here with the same generator labels and
    draw order the serial :meth:`Section4Study.run_policy` loop uses
    (one stream per client, one ``candidates`` call per repetition), so a
    planned campaign offers byte-identical sets.
    """
    if not policy_is_stateless(policy):
        raise ValueError(
            f"policy {policy.name!r} adapts to feedback (overrides observe); "
            "its campaign is sequential and cannot be planned as independent "
            "units - run it with jobs=1 via Section4Study.run_policy"
        )
    client_list = list(clients) if clients is not None else scenario.client_names
    full_set = scenario.relay_names
    units: List[WorkUnit] = []
    for client in client_list:
        rng = scenario.bank.generator("policy", study, policy.name, client)
        for j in range(repetitions):
            start = j * interval
            offered = policy.candidates(client, site, full_set, rng, now=start)
            units.append(
                WorkUnit(
                    index=len(units),
                    study=study,
                    client=client,
                    site=site,
                    repetition=j,
                    start_time=start,
                    offered=tuple(offered),
                    set_size_label=set_size_label,
                )
            )
    return CampaignPlan(
        study=study,
        scenario_spec=scenario.spec,
        seed=scenario.bank.root_seed,
        config=config,
        units=tuple(units),
    )


def plan_section4_sweep(
    scenario: Scenario,
    k_values: Iterable[int],
    *,
    repetitions: int,
    interval: float,
    config: SessionConfig,
    site: str = "eBay",
    clients: Optional[Sequence[str]] = None,
) -> CampaignPlan:
    """Decompose the paper's Fig. 6 random-set sweep into one flat plan.

    The sweep is the concatenation of one :class:`UniformRandomSetPolicy`
    campaign per ``k``, in the caller's ``k`` order - exactly the serial
    :meth:`Section4Study.run_random_set_sweep` ordering.  A ``k`` above the
    deployed relay count is refused: the policy would offer every relay,
    so it would record a second sample of the full-set size.
    """
    from repro.core.random_set import UniformRandomSetPolicy

    k_values = list(k_values)
    n_relays = len(scenario.relay_names)
    too_big = [k for k in k_values if k > n_relays]
    if too_big:
        raise ValueError(
            f"set size k={max(too_big)} needs {max(too_big)} relays; "
            f"scenario deploys {n_relays}"
        )
    units: List[WorkUnit] = []
    for k in k_values:
        sub = plan_section4_policy(
            scenario,
            UniformRandomSetPolicy(k),
            repetitions=repetitions,
            interval=interval,
            config=config,
            study="section4",
            site=site,
            clients=clients,
        )
        base = len(units)
        units.extend(
            dataclasses.replace(u, index=base + u.index) for u in sub.units
        )
    return CampaignPlan(
        study="section4",
        scenario_spec=scenario.spec,
        seed=scenario.bank.root_seed,
        config=config,
        units=tuple(units),
    )

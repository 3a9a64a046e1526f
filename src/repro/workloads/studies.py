"""The study registry: one entry per study, looked up by name.

Each study (``section2``, ``section4``, ``failures``, ``mhttp``, ``chaos``,
``scale``) defines a :class:`Study` entry in its own module, next to its
planner and unit runner.  The CLI driver (:mod:`repro.cli`) and the
runner's :func:`~repro.runner.pool.run_unit` read these entries and know
nothing else about studies.  This module imports no study module;
:func:`get_study` imports an entry's module on first use.  Adding a study
means writing its module and one line in :data:`STUDIES`.  The session
parameters the studies share, :data:`STUDY_SESSION_CONFIG`, live here too,
so a study module need not import another.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.session import SessionConfig
from repro.http.transfer import TcpParams
from repro.workloads.scenario import Scenario, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import argparse

__all__ = ["STUDIES", "STUDY_SESSION_CONFIG", "Study", "get_study", "unit_runner"]

#: Session parameters used by the studies: PlanetLab-era hosts ran with
#: enlarged TCP buffers, so a 128 KB maximum window (not the protocol-default
#: 64 KB) is the faithful setting for 2005 wide-area transfers.
STUDY_SESSION_CONFIG = SessionConfig(tcp=TcpParams(max_window=131_072.0))

#: Registered studies in CLI order: name -> (``module:attribute`` of the
#: :class:`Study` entry, one-line help for the subcommand).
STUDIES: Dict[str, Tuple[str, str]] = {
    "section2": (
        "repro.workloads.experiment:SECTION2_STUDY",
        "run the §2-3 campaign (22 clients)",
    ),
    "section4": (
        "repro.workloads.experiment:SECTION4_STUDY",
        "run the §4 random-set sweep",
    ),
    "failures": (
        "repro.workloads.failures:STUDY",
        "run the availability study (resilient protocol under outages)",
    ),
    "mhttp": (
        "repro.workloads.mhttp:STUDY",
        "run the mHTTP striping study (select-one vs stripe-k)",
    ),
    "chaos": (
        "repro.workloads.chaos:STUDY",
        "run the chaos resilience study (fault injection x mechanism)",
    ),
    "scale": (
        "repro.workloads.scale:STUDY",
        "run the population-scale study (100k clients racing probes)",
    ),
}


def _one_site_spec(sites: Tuple[str, ...]) -> ScenarioSpec:
    """The §2 deployment restricted to the requested sites."""
    return ScenarioSpec.section2(sites=sites)


@dataclass(frozen=True)
class Study:
    """One study's registry entry.

    The CLI driver gives every study ``--seed``, ``--out``, the runner and
    obs flags, and the site and client flags the entry asks for; it then
    calls :attr:`arguments` for the study's own flags.  :attr:`plan` sees
    the parsed flags with every comma-separated list already split,
    deduplicated and typed, the sites and clients validated, and the
    ``--quick`` preset applied.
    """

    #: ``(scenario, args) -> CampaignPlan``; raises ``ValueError`` on a bad
    #: argument, which the CLI reports as a usage error.
    plan: Callable[[Scenario, "argparse.Namespace"], Any]
    #: ``(scenario, config, unit, extra) -> record``: executes one work unit
    #: (``extra`` is the plan's study parameters).
    run_unit: Callable[[Scenario, Any, Any, Any], Any]
    #: Adds the study's own flags to its subcommand.
    arguments: Callable[["argparse.ArgumentParser"], None]
    #: The study's comma-separated flags: argparse dest -> item type.
    lists: Mapping[str, Callable[[str], Any]] = field(default_factory=dict)
    #: ``"site"`` (one target, ``--site``), ``"sites"`` (a ``--sites``
    #: list) or ``None`` when the scenario fixes its own sites.
    site_flag: Optional[str] = "site"
    #: Whether the study takes a ``--clients`` subset of the scenario.
    client_subset: bool = True
    #: The scenario for the validated sites.
    spec: Callable[[Tuple[str, ...]], ScenarioSpec] = _one_site_spec
    #: The fixed tiny ``--quick`` campaign: argparse dest -> value, in
    #: command-line form (lists comma-separated).  The preset fills only
    #: the flags the user did not give (``plan_study`` also narrows an absent
    #: ``--clients`` to two); the study has no ``--quick`` flag when ``None``.
    quick: Optional[Mapping[str, Any]] = None
    quick_help: str = ""
    #: ``records -> text`` printed after the artefact is written.
    render: Optional[Callable[[Sequence[Any]], str]] = None


def get_study(name: str) -> Study:
    """The registered entry for ``name``, importing its module on first use."""
    try:
        target = STUDIES[name][0]
    except KeyError:
        raise ValueError(
            f"unknown study {name!r}; registered: {list(STUDIES)}"
        ) from None
    module, _, attribute = target.partition(":")
    study: Study = getattr(importlib.import_module(module), attribute)
    return study


def unit_runner(unit: Any) -> Callable[[Scenario, Any, Any, Any], Any]:
    """The function that executes ``unit``.

    A unit names its study by ``runner`` or, when that is unset (the field
    is hashed into the unit id, so studies whose units predate it leave it
    out), by ``study``.  Units of an unregistered study - ad-hoc policy runs
    such as ``Section4Study.run_policy(..., study="weighted")`` - are paired
    transfers, which the ``section2`` entry runs.
    """
    name = unit.runner or unit.study
    if unit.runner is None and name not in STUDIES:
        name = "section2"
    return get_study(name).run_unit

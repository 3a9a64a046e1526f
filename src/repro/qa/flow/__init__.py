"""Whole-program determinism & spawn-safety analysis (``repro check``).

Where :mod:`repro.qa.lint` checks one file at a time, this package builds a
project-wide call graph (:mod:`repro.qa.flow.callgraph`) and runs
interprocedural passes over it:

========  ==================================================================
QA-F001   unseeded-RNG flows: a seed parameter that can arrive as ``None``
          through some call chain into ``default_rng``/``SeedSequence``/
          ``PCG64``/``SeedBank``
QA-F002   wall-clock values crossing call boundaries into artefact sinks
          (saved stores, record constructors, obs payloads, JSON dumps)
QA-F003   dict/set iteration order reaching artefact sinks or WorkUnit plan
          construction without a sorted key
QA-F004   spawn-safety: unpicklable process payloads and module-global
          mutable state touched by worker-reachable code
QA-F005   mutable default arguments
========  ==================================================================

Entry point: :func:`analyze_paths` returns sorted, suppression-filtered
:class:`~repro.qa.flow.report.FlowFinding` objects; ``# qa: ignore[CODE]``
comments on the finding line are honoured exactly as for ``repro lint``
(shared parser in :mod:`repro.qa.files`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.qa.files import suppressed_codes_by_line
from repro.qa.flow.callgraph import Project, build_project
from repro.qa.flow.order import check_iteration_order
from repro.qa.flow.report import FlowFinding
from repro.qa.flow.spawnsafe import check_mutable_defaults, check_spawn_safety
from repro.qa.flow.taint import check_unseeded_flow, check_wall_clock_flow


def analyze_project(project: Project) -> List[FlowFinding]:
    """Run every QA-F pass over an already-built project."""
    findings: List[FlowFinding] = []
    findings.extend(check_unseeded_flow(project))
    findings.extend(check_wall_clock_flow(project))
    findings.extend(check_iteration_order(project))
    findings.extend(check_spawn_safety(project))
    findings.extend(check_mutable_defaults(project))

    # Honour line-scoped `# qa: ignore[CODE]` suppressions.
    suppressions: Dict[str, Dict[int, Set[str]]] = {}
    for module in project.modules.values():
        suppressions[module.path] = suppressed_codes_by_line(module.source)
    kept = [
        f
        for f in findings
        if f.code not in suppressions.get(f.path, {}).get(f.line, set())
    ]
    kept.sort(key=FlowFinding.sort_key)
    return kept


def analyze_paths(paths: Sequence[str]) -> List[FlowFinding]:
    """Build the project from ``paths`` and run every QA-F pass."""
    return analyze_project(build_project(paths))

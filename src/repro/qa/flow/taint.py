"""Determinism taint passes: QA-F001 (unseeded RNG) and QA-F002 (wall clock).

Both passes work on function *summaries* propagated over the project call
graph, which is what makes them see hazards the per-file linter cannot:

* **QA-F001** - a generator-construction site (``default_rng(seed)``,
  ``SeedSequence(seed)``, ``PCG64(seed)``, ``SeedBank(seed)``) whose seed is
  one of the enclosing function's parameters creates an *obligation*: every
  call path into that function must supply a seed-derived value.  The pass
  walks caller edges upward; a caller that omits the argument (with a
  ``None`` default) or passes a literal ``None`` completes an unseeded
  chain, which is reported at the construction site with the full call
  chain.  The per-file rule QA-D003 only sees the textually argless call.

* **QA-F002** - functions are summarized as *wall-clock returning* (their
  return value derives from ``time.time``/``datetime.now``/... directly or
  through callees) and parameters are summarized as *artefact-sink flowing*
  (the parameter reaches a ``TraceStore`` save, a record constructor, an
  obs span/event payload or a checkpoint/JSON dump, directly or through
  callees).  A call argument that is wall-clock derived and lands on a
  sink-flowing parameter - or sits directly in a sink call - is flagged.

Known false negatives (documented in DESIGN.md §10): values smuggled
through containers or object attributes, ``*args``/``**kwargs`` call sites,
and seed values produced by arbitrary arithmetic are not tracked.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.qa.flow._shared import (
    basename,
    iter_own_nodes,
    local_name_assignments,
    map_call_args,
    resolve_to_param,
)
from repro.qa.flow.callgraph import CallSite, FunctionInfo, Project, dotted_name
from repro.qa.flow.report import FlowFinding
from repro.qa.lint import _WALL_CLOCK_CALLS as WALL_CLOCK_CALLS

__all__ = ["check_unseeded_flow", "check_wall_clock_flow"]

#: Constructors that turn a seed into a random stream.
SEED_CONSUMERS: Set[str] = {"default_rng", "SeedSequence", "PCG64", "MT19937", "Philox", "SeedBank"}

#: Identifier tokens that mark a value as seed-derived (heuristic).
SEED_TOKENS: Set[str] = {"seed", "rng", "bank", "entropy", "generator"}

#: Callable basenames whose result is seed-derived.
SEED_PRODUCERS: Set[str] = {"derive_seed", "seed", "sequence", "child", "spawn"}

#: Longest caller chain followed before giving up (cycle/blowup guard).
MAX_CHAIN = 12


def _tokens(name: str) -> Set[str]:
    import re

    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name)
    return {t.lower() for t in re.split(r"[^a-zA-Z0-9]+", spaced) if t}


# --------------------------------------------------------------------------- #
# QA-F001: unseeded RNG flows
# --------------------------------------------------------------------------- #
def _seed_argument(call: ast.Call) -> Optional[ast.expr]:
    """The seed argument of a generator-construction call, if present."""
    if call.args:
        first = call.args[0]
        if not isinstance(first, ast.Starred):
            return first
        return None
    for kw in call.keywords:
        if kw.arg in ("seed", "entropy", "root_seed"):
            return kw.value
    return None


def _is_seed_consumer(call: ast.Call) -> bool:
    name = basename(call.func)
    return name in SEED_CONSUMERS


def _classify_seed_expr(
    expr: ast.expr, func: FunctionInfo, assignments: Dict[str, ast.expr]
) -> Tuple[str, Optional[str]]:
    """Classify a seed-position expression.

    Returns ``(kind, param)`` where kind is one of ``"none"`` (literal
    ``None``), ``"seeded"``, ``"param"`` (a parameter of ``func``; the
    obligation moves to its callers), or ``"unknown"``.
    """
    if isinstance(expr, ast.Constant):
        return ("none", None) if expr.value is None else ("seeded", None)
    param = resolve_to_param(expr, func, assignments)
    if param is not None:
        return "param", param
    if isinstance(expr, ast.Call):
        name = basename(expr.func)
        if name in SEED_PRODUCERS or _is_seed_consumer(expr):
            return "seeded", None
        written = dotted_name(expr.func)
        if written is not None and SEED_TOKENS & _tokens(written):
            return "seeded", None
        return "unknown", None
    idents: Set[str] = set()
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            idents |= _tokens(sub.id)
        elif isinstance(sub, ast.Attribute):
            idents |= _tokens(sub.attr)
    if SEED_TOKENS & idents:
        return "seeded", None
    return "unknown", None


def _propagation_sites(project: Project, func: FunctionInfo) -> List[CallSite]:
    """Caller sites precise enough to propagate an obligation through."""
    sites = []
    for site in project.callers(func.qualname):
        if site.kind in ("direct", "method", "constructor"):
            sites.append(site)
        elif site.kind == "name-match" and len(site.callees) == 1:
            sites.append(site)
    return sites


def check_unseeded_flow(project: Project) -> List[FlowFinding]:
    """QA-F001: report call chains that seed a generator from OS entropy."""
    findings: List[FlowFinding] = []
    reachable = project.reachable_from(project.entry_points())
    assignments_cache: Dict[str, Dict[str, ast.expr]] = {}

    def assigns(func: FunctionInfo) -> Dict[str, ast.expr]:
        if func.qualname not in assignments_cache:
            assignments_cache[func.qualname] = local_name_assignments(func)
        return assignments_cache[func.qualname]

    reported: Set[Tuple[str, int, int, str, int]] = set()
    for func in list(project.functions.values()):
        own_assigns = assigns(func)
        for node in iter_own_nodes(func):
            if not (isinstance(node, ast.Call) and _is_seed_consumer(node)):
                continue
            seed = _seed_argument(node)
            if seed is None:
                continue  # argless: per-file QA-D003 territory
            kind, param = _classify_seed_expr(seed, func, own_assigns)
            if kind != "param" or param is None:
                continue
            # The obligation: every caller chain must supply a seed for
            # `param`.  Walk caller edges breadth-first until each path is
            # discharged (seeded/unknown) or completes an unseeded chain.
            stack: List[Tuple[FunctionInfo, str, Tuple[str, ...]]] = [(func, param, ())]
            visited: Set[Tuple[str, str]] = set()
            while stack:
                cur, cur_param, chain = stack.pop()
                if (cur.qualname, cur_param) in visited or len(chain) >= MAX_CHAIN:
                    continue
                visited.add((cur.qualname, cur_param))
                for caller_site in _propagation_sites(project, cur):
                    caller = project.function(caller_site.caller)
                    if caller is None:
                        continue
                    mapping = map_call_args(caller_site.node, cur)
                    if mapping is None:
                        continue
                    hop = f"{caller_site.caller} ({caller_site.path}:{caller_site.line})"
                    why: Optional[str] = None
                    if cur_param not in mapping:
                        if cur.defaults.get(cur_param) == "none":
                            why = f"omits `{cur_param}` (defaults to None)"
                    else:
                        k, up = _classify_seed_expr(
                            mapping[cur_param], caller, assigns(caller)
                        )
                        if k == "none":
                            why = f"passes None for `{cur_param}`"
                        elif k == "param" and up is not None:
                            stack.append((caller, up, chain + (hop,)))
                    if why is None:
                        continue
                    if caller.qualname not in reachable:
                        continue
                    key = (
                        func.path,
                        node.lineno,
                        node.col_offset,
                        caller_site.caller,
                        caller_site.line,
                    )
                    if key in reported:
                        continue
                    reported.add(key)
                    ctor = basename(node.func) or "default_rng"
                    hops = (f"{func.qualname} ({func.path}:{node.lineno})",) + chain + (hop,)
                    findings.append(
                        FlowFinding(
                            path=func.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="QA-F001",
                            message=(
                                f"`{ctor}` in `{func.qualname}` is seeded from "
                                f"parameter `{param}`, but `{caller_site.caller}` "
                                f"({caller_site.path}:{caller_site.line}) {why}: "
                                "the stream falls back to OS entropy"
                            ),
                            symbol=func.qualname,
                            trace=tuple(reversed(hops)),
                        )
                    )
    findings.sort(key=FlowFinding.sort_key)
    return findings


# --------------------------------------------------------------------------- #
# QA-F002: wall-clock values reaching artefact sinks
# --------------------------------------------------------------------------- #
#: Record/plan constructors whose fields end up in saved artefacts.
ARTEFACT_CTORS: Set[str] = {
    "TransferRecord",
    "FaultedRecord",
    "FailureRecord",
    "StripeRecord",
    "ChaosRecord",
    "ScaleRecord",
    "ObsRecord",
    "WorkUnit",
    "CampaignPlan",
}

#: Method/function basenames that persist their arguments.
ARTEFACT_CALLS: Set[str] = {
    "save_jsonl",
    "write_manifest",
    "span",
    "event",
    "dump",
    "dumps",
}


def is_artefact_sink(call: ast.Call) -> Optional[str]:
    """Name of the artefact sink this call writes to, or ``None``."""
    name = basename(call.func)
    if name in ARTEFACT_CTORS:
        return name
    if name in ARTEFACT_CALLS:
        if name in ("dump", "dumps"):
            written = dotted_name(call.func)
            if written not in ("json.dump", "json.dumps"):
                return None
        return name
    return None


class _WallSummary:
    """Fixpoint summaries for the wall-clock pass."""

    def __init__(self, project: Project):
        self.project = project
        self.returns_wall: Set[str] = set()
        self.sink_params: Dict[str, Set[str]] = {}
        self._site_index: Dict[int, CallSite] = {}
        for sites in project.calls_by_caller.values():
            for site in sites:
                self._site_index[id(site.node)] = site

    def site_for(self, call: ast.Call) -> Optional[CallSite]:
        return self._site_index.get(id(call))

    # -- wall-clock expression test -------------------------------------- #
    def expr_is_wall(
        self,
        expr: ast.expr,
        wall_locals: Set[str],
    ) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                written = dotted_name(sub.func)
                if written is not None and written in WALL_CLOCK_CALLS:
                    return True
                site = self.site_for(sub)
                if site is not None and any(
                    c in self.returns_wall for c in site.callees
                ):
                    return True
            elif isinstance(sub, ast.Name) and sub.id in wall_locals:
                return True
        return False

    def wall_locals(self, func: FunctionInfo) -> Set[str]:
        """Local names assigned (transitively) from wall-clock expressions."""
        out: Set[str] = set()
        for _ in range(3):  # a couple of rounds settles realistic chains
            changed = False
            for node in iter_own_nodes(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and target.id not in out:
                        if self.expr_is_wall(node.value, out):
                            out.add(target.id)
                            changed = True
            if not changed:
                break
        return out

    # -- fixpoints -------------------------------------------------------- #
    def compute(self) -> None:
        funcs = list(self.project.functions.values())
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for func in funcs:
                if func.qualname not in self.returns_wall and self._returns_wall(func):
                    self.returns_wall.add(func.qualname)
                    changed = True
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for func in funcs:
                new = self._sink_params(func)
                if new != self.sink_params.get(func.qualname, set()):
                    self.sink_params[func.qualname] = new
                    changed = True

    def _returns_wall(self, func: FunctionInfo) -> bool:
        wall_locals = self.wall_locals(func)
        for node in iter_own_nodes(func):
            if isinstance(node, ast.Return) and node.value is not None:
                if self.expr_is_wall(node.value, wall_locals):
                    return True
        return False

    def _sink_params(self, func: FunctionInfo) -> Set[str]:
        params = set(func.params) | set(func.kwonly)
        if not params:
            return set()
        out: Set[str] = set(self.sink_params.get(func.qualname, set()))
        assignments = local_name_assignments(func)
        for node in iter_own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            exprs = list(node.args) + [kw.value for kw in node.keywords]
            if is_artefact_sink(node) is not None:
                for expr in exprs:
                    for sub in ast.walk(expr):
                        if isinstance(sub, ast.Name):
                            p = resolve_to_param(sub, func, assignments)
                            if p is not None:
                                out.add(p)
                continue
            site = self.site_for(node)
            if site is None or not site.callees:
                continue
            for callee_qual in site.callees:
                callee = self.project.function(callee_qual)
                if callee is None:
                    continue
                callee_sinks = self.sink_params.get(callee_qual)
                if not callee_sinks:
                    continue
                mapping = map_call_args(node, callee)
                if mapping is None:
                    continue
                for pname, expr in mapping.items():
                    if pname not in callee_sinks:
                        continue
                    for sub in ast.walk(expr):
                        if isinstance(sub, ast.Name):
                            p = resolve_to_param(sub, func, assignments)
                            if p is not None:
                                out.add(p)
        return out


def check_wall_clock_flow(project: Project) -> List[FlowFinding]:
    """QA-F002: wall-clock values crossing calls into artefact sinks."""
    summary = _WallSummary(project)
    summary.compute()
    findings: List[FlowFinding] = []
    for func in project.functions.values():
        wall_locals = summary.wall_locals(func)
        for node in iter_own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            sink = is_artefact_sink(node)
            site = summary.site_for(node)
            exprs = list(node.args) + [kw.value for kw in node.keywords]
            if sink is not None:
                for expr in exprs:
                    if summary.expr_is_wall(expr, wall_locals):
                        findings.append(
                            FlowFinding(
                                path=func.path,
                                line=node.lineno,
                                col=node.col_offset,
                                code="QA-F002",
                                message=(
                                    f"wall-clock-derived value reaches artefact "
                                    f"sink `{sink}` in `{func.qualname}`: the "
                                    "artefact differs run to run"
                                ),
                                symbol=func.qualname,
                            )
                        )
                        break
                continue
            if site is None or not site.callees:
                continue
            for callee_qual in site.callees:
                callee = project.function(callee_qual)
                if callee is None:
                    continue
                callee_sinks = summary.sink_params.get(callee_qual)
                if not callee_sinks:
                    continue
                mapping = map_call_args(node, callee)
                if mapping is None:
                    continue
                hit = next(
                    (
                        pname
                        for pname, expr in mapping.items()
                        if pname in callee_sinks
                        and summary.expr_is_wall(expr, wall_locals)
                    ),
                    None,
                )
                if hit is not None:
                    findings.append(
                        FlowFinding(
                            path=func.path,
                            line=node.lineno,
                            col=node.col_offset,
                            code="QA-F002",
                            message=(
                                f"wall-clock-derived value passed to "
                                f"`{callee_qual}` parameter `{hit}`, which "
                                "flows into an artefact sink"
                            ),
                            symbol=func.qualname,
                            trace=(
                                f"{func.qualname} ({func.path}:{node.lineno})",
                                f"{callee_qual} ({callee.path}:{callee.lineno})",
                            ),
                        )
                    )
                    break
    # One finding per (path, line, code) is enough.
    unique: Dict[Tuple[str, int, str], FlowFinding] = {}
    for f in findings:
        unique.setdefault((f.path, f.line, f.code), f)
    out = sorted(unique.values(), key=FlowFinding.sort_key)
    return out

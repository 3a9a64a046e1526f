"""QA-F003: dict/set iteration order reaching artefacts.

``dict`` iteration follows insertion order and ``set`` iteration follows
hash order (randomized across processes for strings).  Neither is an
explicit, reviewable key.  When such an iteration's products end up in a
campaign artefact - a saved store, a record or :class:`WorkUnit`
constructor, a JSON/checkpoint dump, an obs payload - the artefact's byte
layout silently depends on construction history instead of a sorted key.

The pass is interprocedural in its *sink* reasoning: a function whose
return value feeds an artefact sink in some caller (transitively) is
"artefact-relevant", and hazardous iterations inside any artefact-relevant
function are flagged.  ``sorted(...)`` wrapping the iterable (possibly
under ``list``/``tuple``/``enumerate``/``reversed``) discharges the hazard.

Both hazard kinds are gated on artefact relevance.  A comprehension whose
products all go into one order-free builtin (``any``, ``all``, ``min``,
``max``, ``len``, ``set``, ``frozenset``, ``sorted``) is never a hazard,
even inside an artefact-relevant function; one feeding ``sum`` is, since
float addition depends on the order of its terms.  Nor does a call inside
the arguments of ``any``, ``all`` or ``len`` make its callee
artefact-relevant: only a bool or a count reaches the sink.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.qa.flow._shared import (
    basename,
    iter_own_nodes,
    local_name_assignments,
)
from repro.qa.flow.callgraph import FunctionInfo, Project
from repro.qa.flow.report import FlowFinding
from repro.qa.flow.taint import is_artefact_sink

__all__ = ["check_iteration_order"]

#: `.attr()` views whose iteration order is the mapping's order.
_DICT_VIEWS: Set[str] = {"keys", "values", "items"}

#: Wrappers that preserve (or pin) iteration order; `sorted` sanitizes.
_ORDER_WRAPPERS: Set[str] = {"list", "tuple", "enumerate", "reversed", "iter"}

#: Annotation heads that mark a parameter as a mapping / set.
_DICT_ANNOTATIONS: Set[str] = {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict", "Counter"}
_SET_ANNOTATIONS: Set[str] = {"set", "Set", "AbstractSet", "MutableSet", "FrozenSet", "frozenset"}

#: Builtins whose result does not depend on the order they consume.  Not
#: ``sum``: float addition depends on the order of its terms.
_ORDER_FREE: Set[str] = {"any", "all", "min", "max", "len", "set", "frozenset", "sorted"}

#: The order-free builtins whose result carries none of the values they
#: consume, so nothing inside their arguments reaches an artefact.
_COUNTED: Set[str] = {"any", "all", "len"}

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

#: Call basenames that construct dicts / sets.
_DICT_CTORS: Set[str] = {"dict", "defaultdict", "OrderedDict", "Counter", "group_by"}
_SET_CTORS: Set[str] = {"set", "frozenset"}


def _annotation_head(ann: Optional[ast.expr]) -> Optional[str]:
    if ann is None:
        return None
    node = ann
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the head identifier.
        text = node.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] or None
    name = basename(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
    return name


class _Typer:
    """Best-effort "is this expression a dict / a set" classifier."""

    def __init__(self, project: Project):
        self.project = project
        self.returns_kind: Dict[str, str] = {}  # qualname -> "dict" | "set"
        self._site_index: Dict[int, Tuple[str, ...]] = {}
        for sites in project.calls_by_caller.values():
            for site in sites:
                self._site_index[id(site.node)] = site.callees

    def compute(self) -> None:
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for func in self.project.functions.values():
                if func.qualname in self.returns_kind:
                    continue
                kind = self._returns(func)
                if kind is not None:
                    self.returns_kind[func.qualname] = kind
                    changed = True

    def _returns(self, func: FunctionInfo) -> Optional[str]:
        env = self._locals(func)
        for node in iter_own_nodes(func):
            if isinstance(node, ast.Return) and node.value is not None:
                kind = self.kind_of(node.value, func, env)
                if kind is not None:
                    return kind
        return None

    def _locals(self, func: FunctionInfo) -> Dict[str, str]:
        """Local/parameter name -> "dict"/"set" where determinable."""
        env: Dict[str, str] = {}
        node = func.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                head = _annotation_head(arg.annotation)
                if head in _DICT_ANNOTATIONS:
                    env[arg.arg] = "dict"
                elif head in _SET_ANNOTATIONS:
                    env[arg.arg] = "set"
        for stmt in iter_own_nodes(func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    kind = self.kind_of(stmt.value, func, env)
                    if kind is not None:
                        env[target.id] = kind
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                head = _annotation_head(stmt.annotation)
                if head in _DICT_ANNOTATIONS:
                    env[stmt.target.id] = "dict"
                elif head in _SET_ANNOTATIONS:
                    env[stmt.target.id] = "set"
        return env

    def kind_of(
        self, expr: ast.expr, func: FunctionInfo, env: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Call):
            name = basename(expr.func)
            if name in _DICT_CTORS:
                return "dict"
            if name in _SET_CTORS:
                return "set"
            for callee in self._site_index.get(id(expr), ()):
                kind = self.returns_kind.get(callee)
                if kind is not None:
                    return kind
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            left = self.kind_of(expr.left, func, env)
            right = self.kind_of(expr.right, func, env)
            if "set" in (left, right):
                return "set"
        return None


def _order_free_arg(call: ast.Call) -> Optional[ast.expr]:
    """The comprehension ``call`` reduces without regard to order, if any:
    the one argument of a builtin in :data:`_ORDER_FREE` (a keyed
    ``min``/``max`` breaks ties by order, so it does not count)."""
    if not (
        isinstance(call.func, ast.Name)
        and call.func.id in _ORDER_FREE
        and len(call.args) == 1
        and isinstance(call.args[0], _COMPREHENSIONS)
    ):
        return None
    if any(kw.arg == "key" for kw in call.keywords):
        return None
    return call.args[0]


def _iter_iterables(func: FunctionInfo) -> Iterator[ast.expr]:
    """Every expression a loop or comprehension iterates over, except those
    of a comprehension whose products all go into one order-free reducer."""
    free: Set[int] = set()
    for node in iter_own_nodes(func):  # a call comes before its arguments
        if isinstance(node, ast.Call):
            arg = _order_free_arg(node)
            if arg is not None:
                free.add(id(arg))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, _COMPREHENSIONS) and id(node) not in free:
            for gen in node.generators:
                yield gen.iter


def _unwrap(expr: ast.expr) -> Tuple[ast.expr, bool]:
    """Strip order-preserving wrappers; report whether `sorted` was seen."""
    cur = expr
    for _ in range(6):
        if isinstance(cur, ast.Call):
            name = basename(cur.func)
            if name == "sorted":
                return cur, True
            if name in _ORDER_WRAPPERS and cur.args:
                cur = cur.args[0]
                continue
        break
    return cur, False


def _hazard_kind(
    expr: ast.expr, func: FunctionInfo, typer: _Typer, env: Dict[str, str]
) -> Optional[Tuple[str, str]]:
    """``(kind, described)`` when iterating ``expr`` is order-hazardous."""
    inner, is_sorted = _unwrap(expr)
    if is_sorted:
        return None
    if isinstance(inner, ast.Call):
        name = basename(inner.func)
        if name in _DICT_VIEWS and isinstance(inner.func, ast.Attribute):
            base_kind = typer.kind_of(inner.func.value, func, env)
            if base_kind == "dict":
                described = basename(inner.func.value) or "mapping"
                return "dict", f"{described}.{name}()"
            if base_kind is None and name in ("items", "values", "keys"):
                # `.items()` is almost always a mapping even when the base
                # type cannot be inferred.
                described = basename(inner.func.value) or "mapping"
                return ("dict", f"{described}.{name}()") if name == "items" else None
            return None
    kind = typer.kind_of(inner, func, env)
    if kind == "set":
        return "set", basename(inner) or "set expression"
    if kind == "dict":
        return "dict", basename(inner) or "mapping"
    return None


def _walk_sunk(expr: ast.expr) -> Iterator[ast.AST]:
    """The nodes of a sink expression whose values can reach the sink:
    ``ast.walk`` minus the arguments of ``any``, ``all`` and ``len``, whose
    result is a bool or a count whatever order they consume."""
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _COUNTED
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _artefact_relevant(project: Project) -> Set[str]:
    """Functions that sink directly or whose return feeds a sink upstream."""
    relevant: Set[str] = set()
    sink_param_cache: Dict[str, Set[str]] = {}

    def sink_call_in(func: FunctionInfo) -> bool:
        for node in iter_own_nodes(func):
            if isinstance(node, ast.Call):
                if is_artefact_sink(node) is not None:
                    return True
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("write", "writelines")
                ):
                    return True
        return False

    for func in project.functions.values():
        if sink_call_in(func):
            relevant.add(func.qualname)

    # Return-flows-to-sink fixpoint: f is relevant when some caller uses
    # f(...)'s result inside a sink call / relevant return.
    site_owner: Dict[int, str] = {}
    for caller, sites in project.calls_by_caller.items():
        for site in sites:
            site_owner[id(site.node)] = caller

    changed = True
    rounds = 0
    while changed and rounds < 12:
        changed = False
        rounds += 1
        for caller_qual, sites in project.calls_by_caller.items():
            caller = project.function(caller_qual)
            if caller is None:
                continue
            assignments = local_name_assignments(caller)
            # Expressions in `caller` whose contents reach a sink.
            sink_exprs: List[ast.expr] = []
            for node in iter_own_nodes(caller):
                if isinstance(node, ast.Call) and is_artefact_sink(node) is not None:
                    sink_exprs.extend(list(node.args) + [kw.value for kw in node.keywords])
                elif (
                    isinstance(node, ast.Return)
                    and node.value is not None
                    and caller_qual in relevant
                ):
                    sink_exprs.append(node.value)
            if not sink_exprs:
                continue
            # Names referenced by sink expressions (one aliasing hop).
            sunk = [sub for expr in sink_exprs for sub in _walk_sunk(expr)]
            sunk_names = {sub.id for sub in sunk if isinstance(sub, ast.Name)}
            for site in sites:
                if not site.callees:
                    continue
                in_sink = any(sub is site.node for sub in sunk)
                if not in_sink:
                    # assigned to a name later used in a sink expression?
                    for name, value in assignments.items():
                        if value is site.node and name in sunk_names:
                            in_sink = True
                            break
                if not in_sink:
                    continue
                for callee in site.callees:
                    if callee not in relevant and callee in project.functions:
                        relevant.add(callee)
                        changed = True
    return relevant


def check_iteration_order(project: Project) -> List[FlowFinding]:
    """QA-F003: hazardous dict/set iteration in artefact-relevant code."""
    typer = _Typer(project)
    typer.compute()
    relevant = _artefact_relevant(project)
    findings: List[FlowFinding] = []
    for func in project.functions.values():
        env = typer._locals(func)
        func_relevant = func.qualname in relevant
        for iterable in _iter_iterables(func):
            hazard = _hazard_kind(iterable, func, typer, env)
            if hazard is None:
                continue
            kind, described = hazard
            if kind == "dict" and not func_relevant:
                continue  # insertion-ordered iteration off the artefact path
            if kind == "set" and not func_relevant:
                # A set iteration is only deterministic per-process; still,
                # without an artefact consumer it cannot corrupt outputs.
                continue
            noun = "set" if kind == "set" else "dict"
            findings.append(
                FlowFinding(
                    path=func.path,
                    line=iterable.lineno,
                    col=iterable.col_offset,
                    code="QA-F003",
                    message=(
                        f"iteration over {noun} `{described}` in "
                        f"`{func.qualname}` feeds an artefact sink without "
                        "a sorted key: output order depends on "
                        + ("hash order" if kind == "set" else "insertion history")
                    ),
                    symbol=func.qualname,
                )
            )
    unique: Dict[Tuple[str, int, int], FlowFinding] = {}
    for f in findings:
        unique.setdefault((f.path, f.line, f.col), f)
    return sorted(unique.values(), key=FlowFinding.sort_key)

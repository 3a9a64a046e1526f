"""Helpers shared by the ``QA-F`` dataflow passes."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.qa.flow.callgraph import FunctionInfo

__all__ = [
    "basename",
    "iter_own_nodes",
    "local_name_assignments",
    "map_call_args",
    "resolve_to_param",
]


def basename(expr: ast.expr) -> Optional[str]:
    """Last component of a call target (``np.random.default_rng`` -> that attr)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def iter_own_nodes(func: FunctionInfo) -> Iterator[ast.AST]:
    """Walk a function body, excluding nested function/class bodies.

    Nested definitions carry their own :class:`FunctionInfo`, so each pass
    visits every statement exactly once project-wide.
    """
    stack = list(ast.iter_child_nodes(func.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def local_name_assignments(func: FunctionInfo) -> Dict[str, ast.expr]:
    """Map local names to the expression last assigned to them (simple
    ``x = expr`` statements only - tuple targets and augmented assignments
    are ignored, which only loses precision, never soundness for the
    *presence* of a hazard)."""
    out: Dict[str, ast.expr] = {}
    for node in iter_own_nodes(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                out[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out[node.target.id] = node.value
    return out


def resolve_to_param(
    expr: ast.expr,
    func: FunctionInfo,
    assignments: Dict[str, ast.expr],
    *,
    max_hops: int = 8,
) -> Optional[str]:
    """Resolve ``expr`` to a parameter of ``func`` through simple local
    aliasing (``x = seed; ... use(x)``), or ``None``."""
    params: Set[str] = set(func.params) | set(func.kwonly)
    cur = expr
    for _ in range(max_hops):
        if not isinstance(cur, ast.Name):
            return None
        if cur.id in params:
            return cur.id
        nxt = assignments.get(cur.id)
        if nxt is None or nxt is cur:
            return None
        cur = nxt
    return None


def map_call_args(
    call: ast.Call, callee: FunctionInfo
) -> Optional[Dict[str, ast.expr]]:
    """Map a call's arguments onto ``callee``'s parameter names.

    Returns ``None`` when the call uses ``*args``/``**kwargs`` (the mapping
    is then unknowable statically).  Parameters absent from the result take
    their declared default at runtime.
    """
    params = callee.call_params()
    mapping: Dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return None
        if i < len(params):
            mapping[params[i]] = arg
    for kw in call.keywords:
        if kw.arg is None:
            return None
        mapping[kw.arg] = kw.value
    return mapping

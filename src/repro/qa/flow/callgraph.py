"""Project-wide module and call-graph construction for ``repro check``.

The per-file linter (:mod:`repro.qa.lint`) sees one AST at a time; every
``QA-F`` rule needs to see *across* files: which function calls which, with
what arguments, and what flows back.  This module builds that picture:

* **Modules** - every ``.py`` file under the analyzed roots is parsed once
  and given a dotted module name derived from its package layout
  (``src/repro/tcp/fluid.py`` -> ``repro.tcp.fluid``).
* **Definitions** - module-level functions, class methods and nested
  functions are collected with stable qualified names
  (``repro.tcp.fluid.FluidNetwork.activate``); classes record their bases,
  ``__slots__`` declaration and method table.
* **Imports** - ``import a.b as c`` / ``from .x import y`` bindings are
  resolved (including relative imports) so call targets can be looked up
  through aliases.
* **Calls** - every :class:`ast.Call` is resolved to candidate callees:
  exactly for module-scope names and module-attribute chains, by class
  lookup for ``self.method(...)``, and by *conservative name matching* for
  other ``obj.method(...)`` sites (every known method of that name is a
  candidate).  Name matching over-approximates the true graph, which is the
  right bias for a checker: it may follow impossible edges but never misses
  a real one.
* **References** - every other ``Name``/``Attribute`` load that resolves the
  same way (a callback passed as an argument, a registry entry, a property
  read) is a reference edge.  Code that runs on import (module and class
  bodies, decorators, defaults) names the roots every tree starts from.

The graph is deliberately flow-insensitive and type-free - no inference
engine, no third-party dependencies - because the downstream passes only
need reachability and argument/parameter correspondence, not full types.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.qa.files import iter_python_files, read_source

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_project",
    "dotted_name",
    "module_name_for",
]

#: Containers considered mutable when bound at module scope (QA-F004).
_MUTABLE_CTORS = ("list", "dict", "set", "deque", "defaultdict", "Counter", "OrderedDict")


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, derived from ``__init__.py`` layout.

    Walks up from the file while each enclosing directory is a package
    (contains ``__init__.py``); the chain of package directories plus the
    file stem is the module name.  A file outside any package is just its
    stem, so ad-hoc fixture trees analyze fine.
    """
    p = Path(path).resolve()
    parts: List[str] = []
    if p.stem != "__init__":
        parts.append(p.stem)
    d = p.parent
    while (d / "__init__.py").exists():
        parts.append(d.name)
        parent = d.parent
        if parent == d:  # filesystem root; cannot recurse further
            break
        d = parent
    return ".".join(reversed(parts)) if parts else p.stem


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.AST = field(repr=False, compare=False)
    #: Positional-or-keyword parameter names, in order (incl. pos-only).
    params: Tuple[str, ...] = ()
    #: Keyword-only parameter names.
    kwonly: Tuple[str, ...] = ()
    #: Parameter name -> default kind: "none", "literal", "expr".
    defaults: Dict[str, str] = field(default_factory=dict, compare=False)
    #: Qualified name of the owning class for methods, else ``None``.
    cls: Optional[str] = None
    #: True for functions nested inside another function body.
    nested: bool = False

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def call_params(self) -> Tuple[str, ...]:
        """Parameter names as seen by a caller (``self``/``cls`` stripped)."""
        if self.is_method and self.params and self.params[0] in ("self", "cls"):
            return self.params[1:]
        return self.params


@dataclass(frozen=True)
class ClassInfo:
    """One class definition."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    node: ast.ClassDef = field(repr=False, compare=False)
    #: Dotted base-class names as written (best effort).
    bases: Tuple[str, ...] = ()
    #: Method name -> qualified name.
    methods: Dict[str, str] = field(default_factory=dict, compare=False)
    has_slots: bool = False
    #: True when defined inside a function body (unpicklable by reference).
    nested: bool = False


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str
    path: str
    tree: ast.Module = field(repr=False)
    source: str = field(repr=False)
    #: Local alias -> dotted target ("np" -> "numpy",
    #: "SeedBank" -> "repro.util.rng.SeedBank").
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level function name -> qualified name.
    functions: Dict[str, str] = field(default_factory=dict)
    #: Module-level class name -> qualified name.
    classes: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers -> def line.
    mutable_globals: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call expression."""

    caller: str
    path: str
    line: int
    col: int
    node: ast.Call = field(repr=False, compare=False)
    #: Candidate callee qualified names (empty when unresolved).
    callees: Tuple[str, ...] = ()
    #: "direct" | "method" | "name-match" | "constructor".
    kind: str = "direct"
    #: The call expression's dotted name as written, if any.
    written: Optional[str] = None


class Project:
    """The whole-program view the ``QA-F`` passes run over."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls_by_caller: Dict[str, List[CallSite]] = {}
        self.callers_of: Dict[str, List[CallSite]] = {}
        #: Caller qualname (or module name, for import-time code) -> every
        #: qualname it names without calling.  Kept apart from the call
        #: sites because the taint passes read call-site arguments.
        self.refs_by_caller: Dict[str, Set[str]] = {}
        #: method name -> qualnames of every class method with that name.
        self._method_index: Dict[str, List[str]] = {}

    # -- construction helpers ------------------------------------------- #
    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info

    def _add_class(self, info: ClassInfo) -> None:
        self.classes[info.qualname] = info

    def _index_methods(self) -> None:
        self._method_index.clear()
        for cls in self.classes.values():
            for mname, qual in cls.methods.items():
                self._method_index.setdefault(mname, []).append(qual)
        for quals in self._method_index.values():
            quals.sort()

    # -- queries --------------------------------------------------------- #
    def methods_named(self, name: str) -> Tuple[str, ...]:
        """Every known class method with basename ``name``."""
        return tuple(self._method_index.get(name, ()))

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def calls_in(self, qualname: str) -> List[CallSite]:
        return self.calls_by_caller.get(qualname, [])

    def callers(self, qualname: str) -> List[CallSite]:
        return self.callers_of.get(qualname, [])

    def resolve_in_module(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Resolve a bare name in module scope to a known qualname."""
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        target = module.imports.get(name)
        if target is None:
            return None
        if target in self.functions or target in self.classes:
            return target
        return None

    def reachable_from(self, entries: Iterable[str]) -> Set[str]:
        """Transitive closure of callees and references from ``entries``.

        A reached class reaches its dunder methods and the ``visit_*`` /
        ``generic_visit`` methods its dispatcher calls; any other method
        is reached only by name.  A reached ``__init__`` reaches its class.
        """
        seen: Set[str] = set()
        stack = [e for e in entries if e in self.functions or e in self.classes]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for site in self.calls_in(cur):
                stack.extend(site.callees)
            stack.extend(self.refs_by_caller.get(cur, ()))
            cls = self.classes.get(cur)
            if cls is not None:
                stack.extend(
                    qual for name, qual in cls.methods.items() if _reached_with_class(name)
                )
            info = self.functions.get(cur)
            if info is not None and info.name == "__init__" and info.cls is not None:
                stack.append(info.cls)
        return seen

    def entry_points(self) -> Tuple[str, ...]:
        """Study/CLI entry points for reachability filters.

        CLI command handlers, ``main`` functions, study ``run*`` methods,
        the campaign executor and worker bootstraps, plus everything that
        import-time code names (module and class bodies, decorators,
        defaults: a study registry entry, a bench table).  When the
        analyzed tree contains none of the named entry points (e.g. a test
        fixture package), every module-level function is one as well so
        the passes still have a root set.
        """
        entries: List[str] = []
        for info in self.functions.values():
            base = info.name
            mod_tail = info.module.rsplit(".", 1)[-1]
            if mod_tail in ("cli", "__main__") and not info.nested:
                entries.append(info.qualname)
            elif base in ("main", "execute_plan", "run_unit", "_worker_main"):
                entries.append(info.qualname)
            elif base.startswith("_cmd_"):
                entries.append(info.qualname)
            elif info.cls is not None and base.startswith("run"):
                cls = self.classes.get(info.cls)
                if cls is not None and cls.name.endswith("Study"):
                    entries.append(info.qualname)
        if not entries:
            entries = [
                info.qualname
                for info in self.functions.values()
                if info.cls is None and not info.nested
            ]
        for module in self.modules:
            entries.extend(self.refs_by_caller.get(module, ()))
        return tuple(sorted(set(entries)))


def _reached_with_class(method: str) -> bool:
    """True for methods the runtime calls on a class nobody names them on."""
    return (
        (method.startswith("__") and method.endswith("__"))
        or method.startswith("visit_")
        or method == "generic_visit"
    )


# --------------------------------------------------------------------------- #
# per-module collection
# --------------------------------------------------------------------------- #
def _default_kind(node: Optional[ast.expr]) -> str:
    if node is None:
        return "required"
    if isinstance(node, ast.Constant) and node.value is None:
        return "none"
    if isinstance(node, ast.Constant):
        return "literal"
    return "expr"


def _param_defaults(args: ast.arguments) -> Dict[str, str]:
    out: Dict[str, str] = {}
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for name, default in zip(positional, defaults):
        out[name] = _default_kind(default)
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        out[arg.arg] = _default_kind(kw_default)
    return out


def _collect_imports(module: ModuleInfo) -> None:
    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                module.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Resolve `from .x import y` against the module's package.
                # For a package __init__ the module name IS the package, so
                # one fewer component is dropped than for a regular module.
                anchor_parts = module.name.split(".")
                drop = (
                    node.level - 1
                    if module.path.endswith("__init__.py")
                    else node.level
                )
                anchor = anchor_parts[: max(len(anchor_parts) - drop, 0)]
                base = ".".join(anchor + ([base] if base else []))
            elif not base:
                base = package
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.imports[bound] = f"{base}.{alias.name}" if base else alias.name


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "__slots__":
                return True
    return False


def _is_mutable_ctor(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        written = dotted_name(value.func)
        if written is not None and written.rsplit(".", 1)[-1] in _MUTABLE_CTORS:
            return True
    return False


class _DefCollector(ast.NodeVisitor):
    """Collect function/class definitions with qualified names."""

    def __init__(self, project: Project, module: ModuleInfo):
        self.project = project
        self.module = module
        #: Stack of (qualname, kind) where kind is "module"|"class"|"function".
        self.stack: List[Tuple[str, str]] = [(module.name, "module")]

    def _qual(self, name: str) -> str:
        return f"{self.stack[-1][0]}.{name}"

    def _owner_class(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack[-1][1] == "class" else None

    def _in_function(self) -> bool:
        return any(kind == "function" for _, kind in self.stack)

    def _visit_func(self, node: ast.AST, name: str, args: ast.arguments) -> None:
        qual = self._qual(name)
        cls = self._owner_class()
        info = FunctionInfo(
            qualname=qual,
            module=self.module.name,
            name=name,
            path=self.module.path,
            lineno=getattr(node, "lineno", 1),
            node=node,
            params=tuple(a.arg for a in args.posonlyargs + args.args),
            kwonly=tuple(a.arg for a in args.kwonlyargs),
            defaults=_param_defaults(args),
            cls=cls,
            nested=self._in_function(),
        )
        self.project._add_function(info)
        if self.stack[-1][1] == "module":
            self.module.functions[name] = qual
        if cls is not None:
            self.project.classes[cls].methods[name] = qual
        self.stack.append((qual, "function"))
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node, node.name, node.args)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node, node.name, node.args)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        bases = tuple(b for b in (dotted_name(base) for base in node.bases) if b)
        info = ClassInfo(
            qualname=qual,
            module=self.module.name,
            name=node.name,
            path=self.module.path,
            lineno=node.lineno,
            node=node,
            bases=bases,
            methods={},
            has_slots=_has_slots(node),
            nested=self._in_function(),
        )
        self.project._add_class(info)
        if self.stack[-1][1] == "module":
            self.module.classes[node.name] = qual
        self.stack.append((qual, "class"))
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.stack[-1][1] == "module" and _is_mutable_ctor(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module.mutable_globals[target.id] = node.lineno
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# call resolution
# --------------------------------------------------------------------------- #
def _nested_defs(func: FunctionInfo) -> Dict[str, str]:
    """Name -> qualname of the defs in ``func``'s own body, at any depth of
    ``if``/``for``/``with`` but not inside nested defs or classes."""
    out: Dict[str, str] = {}
    stack = list(ast.iter_child_nodes(func.node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[child.name] = f"{func.qualname}.{child.name}"
        elif not isinstance(child, (ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))
    return out


class _CallCollector(ast.NodeVisitor):
    """Resolve every call and reference inside one function body.

    With ``func=None`` it walks a module's import-time code instead: the
    module body, class bodies, and the decorators and defaults of each
    def.  That code's names are recorded as references of the module; its
    calls are not call sites (no pass reads arguments at import time).
    """

    def __init__(
        self, project: Project, module: ModuleInfo, func: Optional[FunctionInfo]
    ):
        self.project = project
        self.module = module
        self.func = func
        self.caller = module.name if func is None else func.qualname
        #: Defs visible as bare names: this function's nested defs, then
        #: those of each enclosing function (a closure calls its siblings).
        self.local_funcs: Dict[str, str] = {}
        scope = func
        while scope is not None:
            for name, qual in _nested_defs(scope).items():
                self.local_funcs.setdefault(name, qual)
            parent = scope.qualname.rsplit(".", 1)[0]
            scope = project.functions.get(parent) if scope.nested else None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested bodies are collected under their own FunctionInfo; at
        # import time only the decorators and defaults run.
        if self.func is None:
            self._visit_def_header(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if self.func is None:
            self._visit_def_header(node)

    def _visit_def_header(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for expr in [*node.decorator_list, *defaults]:
            if expr is not None:
                self.visit(expr)

    def visit_Call(self, node: ast.Call) -> None:
        if self.func is None:
            self.generic_visit(node)
            return
        site = self._resolve(node)
        self.project.calls_by_caller.setdefault(self.func.qualname, []).append(site)
        for callee in site.callees:
            self.project.callers_of.setdefault(callee, []).append(site)
        # The callee expression is the call edge; its receiver is a reference.
        if isinstance(node.func, ast.Attribute):
            self.visit(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword)

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        target = self.local_funcs.get(node.id) or self.project.resolve_in_module(
            self.module, node.id
        )
        if target is not None:
            self._refer((target,))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._refer(self._resolve_attribute(node)[0])
        self.visit(node.value)

    def _refer(self, targets: Iterable[str]) -> None:
        self.project.refs_by_caller.setdefault(self.caller, set()).update(targets)

    def _constructor_target(self, class_qual: str) -> Tuple[Tuple[str, ...], str]:
        cls = self.project.classes.get(class_qual)
        if cls is not None and "__init__" in cls.methods:
            return (cls.methods["__init__"],), "constructor"
        return (class_qual,), "constructor"

    def _resolve(self, node: ast.Call) -> CallSite:
        written = dotted_name(node.func)
        callees: Tuple[str, ...] = ()
        kind = "direct"
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_funcs:
                callees = (self.local_funcs[name],)
            else:
                resolved = self.project.resolve_in_module(self.module, name)
                if resolved is not None:
                    if resolved in self.project.classes:
                        callees, kind = self._constructor_target(resolved)
                    else:
                        callees = (resolved,)
        elif isinstance(func, ast.Attribute):
            callees, kind = self._resolve_attribute(func)
        return CallSite(
            caller=self.func.qualname,
            path=self.module.path,
            line=node.lineno,
            col=node.col_offset,
            node=node,
            callees=callees,
            kind=kind,
            written=written,
        )

    def _resolve_attribute(self, func: ast.Attribute) -> Tuple[Tuple[str, ...], str]:
        # 1. module-attribute chain: `alias.sub.f(...)`.
        written = dotted_name(func)
        if written is not None:
            head = written.split(".", 1)[0]
            target = self.module.imports.get(head)
            if target is not None:
                dotted = written.replace(head, target, 1)
                if dotted in self.project.functions:
                    return (dotted,), "direct"
                if dotted in self.project.classes:
                    return self._constructor_target(dotted)
        # 2. `self.method(...)`: own class, then declared bases.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and self.func is not None
            and self.func.cls is not None
        ):
            resolved = self._lookup_method(self.func.cls, func.attr, set())
            if resolved is not None:
                return (resolved,), "method"
        # 3. conservative name matching over every known method.
        matches = self.project.methods_named(func.attr)
        if matches:
            return matches, "name-match"
        return (), "direct"

    def _lookup_method(
        self, class_qual: str, name: str, seen: Set[str]
    ) -> Optional[str]:
        if class_qual in seen:
            return None
        seen.add(class_qual)
        cls = self.project.classes.get(class_qual)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        module = self.modules_of(cls.module)
        for base in cls.bases:
            base_qual = None if module is None else self._resolve_base(module, base)
            if base_qual is None and base in self.project.classes:
                base_qual = base
            if base_qual is not None:
                found = self._lookup_method(base_qual, name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_base(self, module: ModuleInfo, base: str) -> Optional[str]:
        """The qualname a base class written ``Name`` or ``alias.Name`` (or
        ``alias.sub.Name``) names in ``module``'s scope."""
        head, _, rest = base.partition(".")
        if not rest:
            return self.project.resolve_in_module(module, head)
        target = module.imports.get(head)
        if target is None:
            return None
        owner, _, name = f"{target}.{rest}".rpartition(".")
        owner_module = self.modules_of(owner)
        if owner_module is None:
            return None
        return self.project.resolve_in_module(owner_module, name)

    def modules_of(self, name: str) -> Optional[ModuleInfo]:
        return self.project.modules.get(name)


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
def build_project(paths: Sequence[str]) -> Project:
    """Parse every Python file under ``paths`` into a :class:`Project`."""
    project = Project()
    # Pass 1: parse + collect definitions and imports.
    for file_path in iter_python_files(paths):
        source = read_source(file_path)
        try:
            tree = ast.parse(source, filename=file_path)
        except SyntaxError:
            continue  # the per-file linter reports QA-E000 for these
        module = ModuleInfo(
            name=module_name_for(file_path),
            path=file_path,
            tree=tree,
            source=source,
        )
        project.modules[module.name] = module
        _collect_imports(module)
        _DefCollector(project, module).visit(tree)
    project._index_methods()
    # Pass 2: resolve calls and references, now that every definition is
    # known.
    for module in project.modules.values():
        _CallCollector(project, module, None).visit(module.tree)
        for qual, info in list(project.functions.items()):
            if info.module != module.name:
                continue
            collector = _CallCollector(project, module, info)
            for child in ast.iter_child_nodes(info.node):
                collector.visit(child)
    return project

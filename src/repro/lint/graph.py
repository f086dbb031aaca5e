"""The project import/call graph shared by whole-program rules.

File-local rules (REP001..REP007) see one AST at a time, so they cannot
answer the questions refactors actually raise: *which package* a new
import pulls in (layer firewall), or whether a simulation function reaches
``time.time()`` three calls away through an orchestration helper
(transitive reachability).  This module builds one graph per lint run from
the same :class:`~repro.lint.base.FileContext` objects the per-file rules
consume, and every :class:`~repro.lint.base.ProjectChecker` shares it.

The graph is a *static over-approximation* resolved through names only:

* module nodes keyed by their ``repro``-relative dotted name
  (``net/channel.py`` -> ``net.channel``),
* import edges (module-level and function-level, with ``TYPE_CHECKING``
  imports flagged so firewall checks can skip type-only edges),
* per-function call sites resolved through the module's import bindings
  (``from ..orchestrator import api`` + ``api.run_experiments(...)``
  resolves to ``orchestrator.api.run_experiments``), local functions,
  local classes (constructor calls), and ``self.<method>`` within a class,
* hazard sites: calls that leave the package into wall-clock or
  environment land (``time.*``, ``os.environ``/``os.getenv``,
  ``datetime.now``), recorded with their source location so rules can
  render the full chain in a finding.

Dynamic dispatch (``obj.method()`` on an arbitrary instance, ``getattr``
indirection) is out of scope by design -- the runtime counterpart,
:mod:`repro.sanitizer`, catches what name resolution structurally cannot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .base import FileContext
from .layers import Layer
from ._ast_util import dotted_name

#: Call targets (canonical dotted prefixes) that constitute a determinism
#: hazard when reached from simulation code.  ``time.`` is a prefix match
#: (every ``time`` module function is wall-clock or sleep territory); the
#: rest are exact.
HAZARD_PREFIXES = ("time.",)
HAZARD_EXACT = frozenset(
    {
        "os.getenv",
        "os.putenv",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: ``os.environ`` access of any shape (``.get``, ``[...]``, ``in``).
ENV_PREFIX = "os.environ"


def hazard_of(canonical: str) -> Optional[str]:
    """Classify a canonical external dotted call target as a hazard.

    Returns the canonical hazard name to show in findings, or ``None``.
    """
    if canonical.startswith(HAZARD_PREFIXES):
        return canonical
    if canonical == ENV_PREFIX or canonical.startswith(ENV_PREFIX + "."):
        return canonical
    if canonical in HAZARD_EXACT:
        return canonical
    return None


def is_env_hazard(canonical: str) -> bool:
    """Whether a hazard is an environment read (vs. wall clock)."""
    return canonical.startswith("os.")


@dataclass(slots=True)
class ImportEdge:
    """One internal import: ``module`` imports ``target`` at ``lineno``."""

    lineno: int
    col: int
    target: str
    toplevel: bool
    type_only: bool


@dataclass(slots=True)
class CallSite:
    """A resolved internal call from a function to ``target``."""

    lineno: int
    col: int
    target: str


@dataclass(slots=True)
class HazardSite:
    """A direct call out of the package into hazard territory."""

    lineno: int
    col: int
    canonical: str


@dataclass(slots=True)
class FunctionNode:
    """One module-level function or method, with its outgoing edges.

    Nested functions, lambdas, and comprehensions are folded into their
    enclosing function: if the outer function runs, the inner code may.
    """

    qualname: str
    module: str
    lineno: int
    calls: List[CallSite] = field(default_factory=list)
    hazards: List[HazardSite] = field(default_factory=list)


@dataclass(slots=True)
class ClassInfo:
    """A class definition as ``self.<method>`` call resolution sees it."""

    qualname: str
    module: str
    #: Raw (unresolved) dotted base-class expressions, in source order.
    bases: List[str]
    #: Names of methods defined directly on the class.
    methods: Set[str]


class ModuleNode:
    """One parsed module plus its resolved name bindings."""

    __slots__ = (
        "name",
        "path",
        "relative",
        "package",
        "layer",
        "is_package",
        "tree",
        "imports",
        "bindings",
        "external",
        "functions",
        "classes",
    )

    def __init__(self, context: FileContext, name: str, is_package: bool) -> None:
        self.name = name
        self.path = context.path
        self.relative = context.relative
        #: Top-level package (``net``) or bare module name (``cli``).
        self.package = name.split(".", 1)[0]
        self.layer = context.layer
        self.is_package = is_package
        self.tree = context.tree
        #: Internal import edges (targets that exist in the graph).
        self.imports: List[ImportEdge] = []
        #: Local name -> internal dotted target (module or symbol).
        self.bindings: Dict[str, str] = {}
        #: Local name -> canonical external dotted origin.
        self.external: Dict[str, str] = {}
        #: Function/method qualname (module-relative) -> node.
        self.functions: Dict[str, FunctionNode] = {}
        #: Bare class name -> info.
        self.classes: Dict[str, ClassInfo] = {}


def _module_name(relative: str) -> Optional[Tuple[str, bool]]:
    """``(dotted name, is_package)`` for a package-relative path."""
    if not relative.endswith(".py"):
        return None
    parts = relative[: -len(".py")].split("/")
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if not parts or not all(parts):
        return None
    return ".".join(parts), is_package


def _is_type_checking_guard(node: ast.AST) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = dotted_name(node.test)
    return test is not None and test.split(".")[-1] == "TYPE_CHECKING"


class ProjectGraph:
    """The whole-program view: modules, bindings, calls, hazards."""

    __slots__ = ("modules", "functions", "classes", "_hazard_memo")

    def __init__(self) -> None:
        #: Dotted module name -> node.
        self.modules: Dict[str, ModuleNode] = {}
        #: Fully qualified function name (``mod.Cls.meth``) -> node.
        self.functions: Dict[str, FunctionNode] = {}
        #: Fully qualified class name (``mod.Cls``) -> info.
        self.classes: Dict[str, ClassInfo] = {}
        self._hazard_memo: Dict[str, Optional[List[str]]] = {}

    # -- lookups -------------------------------------------------------

    def module_of_target(self, target: str) -> Optional[ModuleNode]:
        """The module owning a resolved internal target (longest prefix)."""
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            module = self.modules.get(".".join(parts[:end]))
            if module is not None:
                return module
        return None

    def function_for(self, target: str) -> Optional[FunctionNode]:
        """Resolve a call target to a function node (constructors too)."""
        node = self.functions.get(target)
        if node is not None:
            return node
        info = self.classes.get(target)
        if info is not None:
            return self.functions.get(f"{target}.__init__")
        return None

    def resolve_class(self, module: ModuleNode, dotted: str) -> Optional[ClassInfo]:
        """Resolve a dotted class reference as seen from ``module``."""
        head, _, rest = dotted.partition(".")
        if head in module.classes and not rest:
            return module.classes[head]
        origin = module.bindings.get(head)
        if origin is None:
            return None
        target = f"{origin}.{rest}" if rest else origin
        return self.classes.get(target)

    # -- hazard reachability ------------------------------------------

    def hazard_chain(self, target: str) -> Optional[List[str]]:
        """A call chain from ``target`` to a hazard, or ``None``.

        Traverses only functions in *non-simulation* modules: once a chain
        re-enters the simulation layer the callee is subject to the
        file-local rules (REP001/REP002) and its own crossing edges, so
        stopping there keeps each finding anchored at exactly one crossing.
        The returned chain lists function qualnames and ends with
        ``"<hazard> (<path>:<line>)"``.
        """
        return self._chain(target, frozenset())

    def _chain(self, target: str, visiting: frozenset) -> Optional[List[str]]:
        if target in self._hazard_memo and target not in visiting:
            return self._hazard_memo[target]
        if target in visiting:
            return None
        node = self.function_for(target)
        if node is None:
            return None
        owner = self.modules.get(node.module)
        if owner is None or owner.layer is Layer.SIMULATION:
            return None
        result: Optional[List[str]] = None
        if node.hazards:
            hazard = node.hazards[0]
            location = f"{owner.relative}:{hazard.lineno}"
            result = [node.qualname, f"{hazard.canonical} ({location})"]
        else:
            for call in node.calls:
                tail = self._chain(call.target, visiting | {target})
                if tail is not None:
                    result = [node.qualname, *tail]
                    break
        if target not in visiting:
            self._hazard_memo[target] = result
        return result

    # -- reverse import chains ----------------------------------------

    def import_chain_to(self, module: ModuleNode) -> List[str]:
        """A module-level import chain of simulation modules reaching
        ``module``, outermost importer first (``module`` last).

        Used by the firewall rule to show how deep in the simulation layer
        a violating import is reachable from.  Deterministic: breadth-first
        over sorted importer names.
        """
        importers: Dict[str, List[str]] = {}
        for node in self.modules.values():
            if node.layer is not Layer.SIMULATION:
                continue
            for edge in node.imports:
                if edge.toplevel and not edge.type_only:
                    importers.setdefault(edge.target, []).append(node.name)
        chain = [module.name]
        seen = {module.name}
        current = module.name
        while True:
            candidates = sorted(set(importers.get(current, ())) - seen)
            if not candidates:
                return chain
            current = candidates[0]
            seen.add(current)
            chain.insert(0, current)


def build_project_graph(contexts: Sequence[FileContext]) -> ProjectGraph:
    """Build the graph from parsed file contexts (one lint run's files)."""
    graph = ProjectGraph()

    # Pass 1: register modules, classes, and function skeletons so pass 2
    # can distinguish internal from external imports by membership.
    entries: List[Tuple[FileContext, ModuleNode]] = []
    for context in contexts:
        named = _module_name(context.relative)
        if named is None:
            continue
        name, is_package = named
        module = ModuleNode(context, name, is_package)
        graph.modules[name] = module
        entries.append((context, module))

    for context, module in entries:
        _collect_definitions(graph, context, module)

    # Pass 2: resolve imports to bindings and edges, then resolve calls.
    for context, module in entries:
        _collect_imports(graph, context, module)
    for context, module in entries:
        _collect_calls(graph, module)
    return graph


def _collect_definitions(graph: ProjectGraph, context: FileContext, module: ModuleNode) -> None:
    assert isinstance(context.tree, ast.Module)
    for statement in context.tree.body:
        if isinstance(statement, ast.ClassDef):
            _collect_class(graph, module, statement)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{module.name}.{statement.name}"
            node = FunctionNode(qualname=qualname, module=module.name, lineno=statement.lineno)
            module.functions[statement.name] = node
            graph.functions[qualname] = node


def _collect_class(graph: ProjectGraph, module: ModuleNode, node: ast.ClassDef) -> None:
    bases = [base for base in (dotted_name(expr) for expr in node.bases) if base is not None]
    methods: Set[str] = set()
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(statement.name)
            qualname = f"{module.name}.{node.name}.{statement.name}"
            function = FunctionNode(
                qualname=qualname, module=module.name, lineno=statement.lineno
            )
            module.functions[f"{node.name}.{statement.name}"] = function
            graph.functions[qualname] = function
    info = ClassInfo(
        qualname=f"{module.name}.{node.name}", module=module.name, bases=bases, methods=methods
    )
    module.classes[node.name] = info
    graph.classes[info.qualname] = info


def _resolve_relative(module: ModuleNode, level: int, target: Optional[str]) -> Optional[str]:
    """Absolute (package-relative) dotted module for a relative import."""
    parts = module.name.split(".")
    base = parts if module.is_package else parts[:-1]
    if level - 1 > len(base):
        return None
    prefix = base[: len(base) - (level - 1)]
    tail = target.split(".") if target else []
    resolved = prefix + tail
    return ".".join(resolved)


def _collect_imports(graph: ProjectGraph, context: FileContext, module: ModuleNode) -> None:
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        type_only = any(_is_type_checking_guard(a) for a in context.ancestors(node))
        toplevel = all(
            isinstance(a, (ast.Module, ast.If, ast.Try)) for a in context.ancestors(node)
        )
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == "repro" or name.startswith("repro."):
                    internal = name[len("repro.") :] if "." in name else ""
                    if internal and internal in graph.modules:
                        module.imports.append(
                            ImportEdge(node.lineno, node.col_offset, internal, toplevel, type_only)
                        )
                        if alias.asname:
                            module.bindings[alias.asname] = internal
                else:
                    local = alias.asname or name.split(".", 1)[0]
                    module.external[local] = name if alias.asname else name.split(".", 1)[0]
                    if alias.asname is None and "." in name:
                        # `import os.path` binds `os` but makes the full
                        # dotted path importable; map the head only.
                        module.external[local] = name.split(".", 1)[0]
            continue

        # ImportFrom
        target: Optional[str]
        if node.level > 0:
            target = _resolve_relative(module, node.level, node.module)
            internal_import = target is not None
        else:
            raw = node.module or ""
            if raw == "repro" or raw.startswith("repro."):
                target = raw[len("repro") :].lstrip(".")
                internal_import = True
            else:
                target = raw
                internal_import = False

        for alias in node.names:
            local = alias.asname or alias.name
            if internal_import:
                candidate = f"{target}.{alias.name}" if target else alias.name
                if candidate in graph.modules:
                    # `from . import engine` -- a submodule import.
                    module.bindings[local] = candidate
                    module.imports.append(
                        ImportEdge(node.lineno, node.col_offset, candidate, toplevel, type_only)
                    )
                elif target and target in graph.modules:
                    module.bindings[local] = candidate
                    module.imports.append(
                        ImportEdge(node.lineno, node.col_offset, target, toplevel, type_only)
                    )
                elif target:
                    # Internal shape but the module isn't in this run's
                    # file set (partial lint); keep the binding anyway.
                    module.bindings[local] = candidate
            else:
                origin = f"{target}.{alias.name}" if target else alias.name
                module.external[local] = origin

    # `from M import a, b, c` yields one edge per alias at the same line;
    # collapse them so firewall findings report each import once.
    seen: Set[Tuple[int, str, bool, bool]] = set()
    unique: List[ImportEdge] = []
    for edge in module.imports:
        key = (edge.lineno, edge.target, edge.toplevel, edge.type_only)
        if key not in seen:
            seen.add(key)
            unique.append(edge)
    module.imports = unique


def _collect_calls(graph: ProjectGraph, module: ModuleNode) -> None:
    assert isinstance(module.tree, ast.Module)
    for statement in module.tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node = module.functions[statement.name]
            _scan_function(graph, module, None, statement, node)
        elif isinstance(statement, ast.ClassDef):
            for inner in statement.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    node = module.functions[f"{statement.name}.{inner.name}"]
                    _scan_function(graph, module, statement.name, inner, node)


def _scan_function(
    graph: ProjectGraph,
    module: ModuleNode,
    class_name: Optional[str],
    definition: ast.AST,
    node: FunctionNode,
) -> None:
    for child in ast.walk(definition):
        if isinstance(child, ast.Subscript):
            dotted = dotted_name(child.value)
            if dotted is not None:
                canonical = _canonical_external(module, dotted)
                if canonical is not None and hazard_of(canonical) is not None:
                    node.hazards.append(
                        HazardSite(child.lineno, child.col_offset, canonical)
                    )
            continue
        if not isinstance(child, ast.Call):
            continue
        dotted = dotted_name(child.func)
        if dotted is None:
            continue
        canonical = _canonical_external(module, dotted)
        if canonical is not None:
            if hazard_of(canonical) is not None:
                node.hazards.append(HazardSite(child.lineno, child.col_offset, canonical))
            continue
        target = _resolve_internal(graph, module, class_name, dotted)
        if target is not None:
            node.calls.append(CallSite(child.lineno, child.col_offset, target))


def _canonical_external(module: ModuleNode, dotted: str) -> Optional[str]:
    head, _, rest = dotted.partition(".")
    origin = module.external.get(head)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


def _resolve_internal(
    graph: ProjectGraph, module: ModuleNode, class_name: Optional[str], dotted: str
) -> Optional[str]:
    head, _, rest = dotted.partition(".")
    if head == "self" and class_name is not None and rest:
        method = rest.split(".", 1)[0]
        owner = module.classes.get(class_name)
        while owner is not None:
            if method in owner.methods:
                return f"{owner.qualname}.{method}"
            parent: Optional[ClassInfo] = None
            owner_module = graph.modules.get(owner.module)
            if owner_module is not None:
                for base in owner.bases:
                    parent = graph.resolve_class(owner_module, base)
                    if parent is not None:
                        break
            owner = parent
        return None
    origin = module.bindings.get(head)
    if origin is not None:
        return f"{origin}.{rest}" if rest else origin
    if not rest:
        if head in module.functions:
            return f"{module.name}.{head}"
        if head in module.classes:
            return f"{module.name}.{head}"
    return None

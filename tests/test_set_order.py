"""Set iteration order must not reach floats, RNG draws or the event queue.

``set``/``frozenset`` iteration order depends on insertion history and
element hashes.  When that order feeds float accumulation, RNG draws or
``schedule_*`` calls, two logically identical runs can diverge.  Small-int
sets iterate the same way every run, so the goldens and the cross-hash-seed
test do not see such a loop; this AST scan does.  It flags a ``for`` loop
over a name or expression statically known to be a set when the loop body
is order-sensitive (accumulation, scheduling, trace emission, timing-table
writes or RNG draws), and ``sum``/``fsum`` over a set-sourced
comprehension.  Building dicts or membership structures from a set is fine.

The fix is to iterate ``sorted(the_set)``, as ``routing/tree.py``'s
neighbour expansion does, or to keep an explicitly ordered companion
structure, as ``mac/csma.py``'s seen-packet deque does.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

import pytest

from test_import_hygiene import REPO_ROOT, SIMULATION_PACKAGES

#: Calls whose invocation order is observable simulation behaviour: event
#: scheduling and end-of-instant deferral (deferred callbacks fire in call
#: order), trace emission, and TimingTable writes (which fire listener
#: notifications that re-evaluate Safe Sleep and may schedule events).
_ORDER_SENSITIVE_CALLS = frozenset(
    {
        "schedule_at",
        "schedule_in",
        "defer",
        "call_every",
        "emit",
        "set_next_receive",
        "set_next_send",
        "remove_child",
    }
)

#: Receiver names that look like RNG streams.
_RNG_RECEIVER = re.compile(r"(rng|random|stream)s?$", re.IGNORECASE)

#: Set-returning method names on set objects.
_SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference"})

#: Annotations that mark a parameter or variable as set-typed.
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})

Finding = Tuple[str, int, str]


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else ``None``."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted_name(annotation)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATIONS


def _order_sensitivity(body: List[ast.stmt]) -> Optional[str]:
    """Why this loop body is order-sensitive, or ``None`` if it is not."""
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return "accumulates with `+=`-style updates"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _ORDER_SENSITIVE_CALLS:
                    return f"calls `{node.func.attr}(...)`"
                receiver = dotted_name(node.func.value)
                if receiver is not None and _RNG_RECEIVER.search(receiver.split(".")[-1]):
                    return f"draws from `{receiver}`"
    return None


def _is_set_literal(node: ast.AST) -> bool:
    """A set display, comprehension or ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and dotted_name(node.func) in ("set", "frozenset")


def set_attributes(module: ast.Module) -> Set[str]:
    """Attribute names that a class in ``module`` declares set-typed."""
    names: Set[str] = set()
    for cls in ast.walk(module):
        if not isinstance(cls, ast.ClassDef):
            continue
        for statement in cls.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                if _annotation_is_set(statement.annotation):
                    names.add(statement.target.id)
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                is_set = _annotation_is_set(node.annotation) or (
                    node.value is not None and _is_set_literal(node.value)
                )
            elif isinstance(node, ast.Assign):
                targets, is_set = node.targets, _is_set_literal(node.value)
            else:
                continue
            if is_set:
                names.update(
                    target.attr
                    for target in targets
                    if isinstance(target, ast.Attribute) and dotted_name(target.value) == "self"
                )
    return names


class _ScopeVisitor(ast.NodeVisitor):
    """Per-scope tracker of names statically known to hold sets."""

    def __init__(self, path: str, set_names: Set[str], attributes: AbstractSet[str]) -> None:
        self.path = path
        self.set_names = set_names
        self.attributes = attributes
        self.findings: List[Finding] = []

    def _enter_scope(self, node: ast.AST, set_names: Set[str]) -> None:
        nested = _ScopeVisitor(self.path, set_names, self.attributes)
        for child in ast.iter_child_nodes(node):
            nested.visit(child)
        self.findings.extend(nested.findings)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        annotated = {
            arg.arg
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if _annotation_is_set(arg.annotation)
        }
        self._enter_scope(node, annotated)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope(node, set())

    def _is_set_expr(self, node: ast.AST) -> bool:
        if _is_set_literal(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.attributes
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
                return self._is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and (
            _annotation_is_set(node.annotation)
            or (node.value is not None and self._is_set_expr(node.value))
        ):
            self.set_names.add(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            reason = _order_sensitivity(node.body)
            if reason is not None:
                self.findings.append(
                    (self.path, node.lineno, f"set iteration {reason}; iterate `sorted(...)`")
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "pop" and not node.args:
            if self._is_set_expr(func.value):
                self.findings.append((self.path, node.lineno, "`.pop()` of a set is arbitrary"))
        name = dotted_name(func)
        if name is not None and name.split(".")[-1] in ("sum", "fsum"):
            if any(
                isinstance(argument, (ast.GeneratorExp, ast.ListComp))
                and any(self._is_set_expr(gen.iter) for gen in argument.generators)
                for argument in node.args
            ):
                self.findings.append(
                    (self.path, node.lineno, "sum over a set-ordered comprehension")
                )
        self.generic_visit(node)


def scan(
    source: str, path: str = "<string>", attributes: Optional[AbstractSet[str]] = None
) -> List[Finding]:
    """Every set-order hazard in ``source`` as ``(path, line, message)``.

    ``attributes`` are the set-typed attribute names; by default, those that
    ``source`` itself declares.
    """
    module = ast.parse(source, filename=path)
    if attributes is None:
        attributes = set_attributes(module)
    visitor = _ScopeVisitor(path, set(), attributes)
    for child in ast.iter_child_nodes(module):
        visitor.visit(child)
    return visitor.findings


def _simulation_sources() -> Dict[Path, str]:
    src = REPO_ROOT / "src" / "repro"
    paths = sorted(path for package in SIMULATION_PACKAGES for path in (src / package).rglob("*.py"))
    return {path: path.read_text(encoding="utf-8") for path in paths}


def _attributes(sources: Dict[Path, str]) -> Set[str]:
    return {name for source in sources.values() for name in set_attributes(ast.parse(source))}


def test_simulation_packages_scan_clean() -> None:
    sources = _simulation_sources()
    assert len(sources) > 40
    attributes = _attributes(sources)
    findings = [
        finding
        for path, source in sources.items()
        for finding in scan(source, str(path.relative_to(REPO_ROOT)), attributes)
    ]
    assert findings == []


def test_per_event_set_attributes_are_known() -> None:
    """Child bookkeeping, the duplicate window and the period watermark."""
    attributes = _attributes(_simulation_sources())
    assert {"expected_children", "received_children", "_seen_packet_ids", "sparse"} <= attributes


@pytest.mark.parametrize(
    "source",
    [
        """
        def notify(sim, nodes):
            pending = set(nodes)
            for node in pending:
                sim.schedule_in(0.0, node)
        """,
        """
        def request_checks(sim, schedulers):
            for scheduler in set(schedulers):
                sim.defer(scheduler.check)
        """,
        """
        from typing import Set

        def total(weights, members: Set[int]) -> float:
            acc = 0.0
            for member in members:
                acc += weights[member]
            return acc
        """,
        """
        def total(values):
            return sum(v * 2.0 for v in set(values))
        """,
        """
        class State:
            received: Set[int]

            def merge(self, acc):
                for child in self.received:
                    acc += child
        """,
        """
        class Window:
            def __init__(self):
                self.seen = set()

        def notify(sim, window):
            for packet in window.seen:
                sim.schedule_in(0.0, packet)
        """,
        """
        class Watermark:
            def __init__(self):
                self.sparse: Set[int] = set()

        def advance(watermark):
            return watermark.sparse.pop()
        """,
    ],
    ids=[
        "scheduling",
        "deferral",
        "annotated-accumulation",
        "sum-comprehension",
        "self-attribute",
        "other-object-attribute",
        "pop",
    ],
)
def test_fires(source: str) -> None:
    assert len(scan(textwrap.dedent(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        """
        def notify(sim, nodes):
            pending = set(nodes)
            for node in sorted(pending):
                sim.schedule_in(0.0, node)
        """,
        """
        def index(tree, members):
            return {member: tree.parent[member] for member in set(members)}
        """,
        """
        class State:
            received: Set[int]

            def take(self, child, queue):
                if child not in self.received:
                    self.received.add(child)
                    queue.pop()
        """,
        """
        class State:
            expected: Set[int]
            received: Set[int]

            def missing(self, sim):
                for child in sorted(self.expected - self.received):
                    sim.schedule_in(0.0, child)
        """,
    ],
    ids=["sorted", "order-insensitive-body", "membership", "sorted-difference"],
)
def test_silent(source: str) -> None:
    assert scan(textwrap.dedent(source)) == []

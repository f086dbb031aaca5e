"""REP003: set iteration must not feed order-sensitive simulation work."""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set

from ..base import Checker, FileContext, register
from ..findings import Finding
from ..layers import Layer
from .._ast_util import dotted_name

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
        "clear_next_send",
        "remove_child",
        "remove_query",
    }
)

#: Receiver names that look like RNG streams (drawing in set order makes the
#: draw sequence depend on hash iteration order).
_RNG_RECEIVER = re.compile(r"(rng|random|stream)s?$", re.IGNORECASE)

#: Set-returning method names on set objects.
_SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference"})

#: Annotations that mark a parameter/variable as set-typed.
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"})


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = dotted_name(target)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATIONS


class _ScopeVisitor(ast.NodeVisitor):
    """Per-scope tracker of names statically known to hold sets."""

    def __init__(self, checker: "SetOrderChecker", context: FileContext) -> None:
        self.checker = checker
        self.context = context
        self.findings: List[Finding] = []
        self.set_names: Set[str] = set()

    # -- scope handling: each function gets its own tracker ------------- #

    def _enter_scope(self, node: ast.AST, annotated_args: Set[str]) -> None:
        nested = _ScopeVisitor(self.checker, self.context)
        nested.set_names = set(annotated_args)
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

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope(node, set())

    # -- set-typed name tracking ---------------------------------------- #

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
                return self._is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            ):
                self.set_names.add(node.target.id)
        self.generic_visit(node)

    # -- the actual checks ---------------------------------------------- #

    def _body_is_order_sensitive(self, body: List[ast.stmt]) -> Optional[str]:
        """Why this loop body is order-sensitive, or ``None`` if it is not."""
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult)
                ):
                    return "accumulates with `+=`-style updates (float addition is not associative)"
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in _ORDER_SENSITIVE_CALLS:
                        return (
                            f"calls `{node.func.attr}(...)` (event and trace order "
                            "is observable behaviour)"
                        )
                    receiver = dotted_name(node.func.value)
                    if receiver is not None and _RNG_RECEIVER.search(
                        receiver.split(".")[-1]
                    ):
                        return (
                            f"draws from `{receiver}` (draw order must not depend "
                            "on set iteration order)"
                        )
        return None

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            reason = self._body_is_order_sensitive(node.body)
            if reason is not None:
                self.findings.append(
                    self.checker.finding(
                        self.context,
                        node,
                        "iteration over an unordered set "
                        + reason
                        + "; iterate `sorted(...)` instead",
                    )
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # sum()/fsum() over a comprehension whose source is a set: float
        # accumulation in set order.
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in ("sum", "fsum"):
            for argument in node.args:
                if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
                    if any(
                        self._is_set_expr(generator.iter)
                        for generator in argument.generators
                    ):
                        self.findings.append(
                            self.checker.finding(
                                self.context,
                                node,
                                "float accumulation over a set-ordered "
                                "comprehension; sum over `sorted(...)` instead",
                            )
                        )
                        break
        self.generic_visit(node)


@register
class SetOrderChecker(Checker):
    """Set iteration order must not reach floats, RNG draws, or the event queue.

    **Invariant.** ``set``/``frozenset`` iteration order depends on insertion
    history and element hashes.  When that order feeds float accumulation,
    RNG draws, or ``schedule_*`` calls, two logically identical runs diverge
    -- the order-dependence class PRs 3-5 fought repeatedly (collision-window
    accounting, per-link loss draws, reentrant child removal) and the reason
    the goldens in ``tests/golden/`` exist.  Flagged only in simulation
    layers, and only when the loop body is actually order-sensitive
    (accumulation, scheduling, trace emission, or RNG draws); building dicts
    or membership structures from a set is fine.

    **Sanctioned idiom.** Iterate ``sorted(the_set)`` (the pattern used by
    ``routing/tree.py``'s neighbour expansion), or keep an explicitly
    ordered companion structure (``mac/csma.py``'s seen-packet deque).
    """

    code = "REP003"
    name = "no-set-order-dependence"

    def applies_to(self, context: FileContext) -> bool:
        return context.layer is Layer.SIMULATION

    def check(self, context: FileContext) -> List[Finding]:
        visitor = _ScopeVisitor(self, context)
        for child in ast.iter_child_nodes(context.tree):
            visitor.visit(child)
        return visitor.findings

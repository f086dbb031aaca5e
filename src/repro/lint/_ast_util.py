"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Optional, Tuple


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


def decorator_info(node: ast.ClassDef) -> Tuple[bool, bool]:
    """``(is_dataclass, has_slots_true)`` from a class's decorator list."""
    is_dataclass = False
    slots_true = False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is None or name.split(".")[-1] != "dataclass":
            continue
        is_dataclass = True
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
                    slots_true = bool(keyword.value.value)
    return is_dataclass, slots_true


def class_declares_slots(node: ast.ClassDef) -> bool:
    """Whether the class body assigns ``__slots__`` directly."""
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False

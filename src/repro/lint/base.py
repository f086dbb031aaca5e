"""Checker protocol, per-file context, and the rule registry."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Type

from .findings import Finding
from .layers import Layer, is_hot_path, layer_of, package_relative


class FileContext:
    """Everything a checker may want to know about one parsed file."""

    __slots__ = ("path", "relative", "layer", "hot_path", "tree", "lines", "_parents")

    def __init__(self, path: str, source: str, tree: Optional[ast.AST] = None) -> None:
        self.path = path
        #: Posix path relative to the ``repro`` package root (layer-map key).
        self.relative = package_relative(path)
        self.layer: Layer = layer_of(path)
        self.hot_path: bool = is_hot_path(path)
        self.tree: ast.AST = tree if tree is not None else ast.parse(source, filename=path)
        self.lines: List[str] = source.splitlines()
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node``, or ``None`` for the module."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """``node``'s ancestors, innermost first, ending at the module."""
        current = self._parents.get(id(node))
        while current is not None:
            yield current
            current = self._parents.get(id(current))


class Checker:
    """Base class for reprolint rules.

    Subclasses set :attr:`code` / :attr:`name`, document the invariant's
    rationale (and the test/PR that motivated it) in their docstring, and
    implement :meth:`check`.  :meth:`applies_to` gates the rule on the
    layer map so allow-listing is declarative.
    """

    #: The rule code, e.g. ``"REP003"``.
    code: str = ""
    #: Short kebab-case rule name for ``--list-rules`` output.
    name: str = ""

    def applies_to(self, context: FileContext) -> bool:
        """Whether the rule runs on this file at all (default: every file)."""
        return True

    def check(self, context: FileContext) -> List[Finding]:
        """Return every violation found in ``context``."""
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )

    @classmethod
    def rationale(cls) -> str:
        """The rule's documented invariant (its docstring, dedented)."""
        import inspect

        return inspect.cleandoc(cls.__doc__ or "")


#: code -> checker class.  Populated by :func:`register` at import time of
#: :mod:`repro.lint.rules`.
_REGISTRY: Dict[str, Type[Checker]] = {}


def register(checker: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a rule to the registry (codes must be unique)."""
    if not checker.code:
        raise ValueError(f"checker {checker.__name__} has no code")
    existing = _REGISTRY.get(checker.code)
    if existing is not None and existing is not checker:
        raise ValueError(f"duplicate rule code {checker.code!r}")
    _REGISTRY[checker.code] = checker
    return checker


def all_checkers() -> List[Type[Checker]]:
    """Every registered checker class, sorted by code."""
    from . import rules  # noqa: F401  (importing populates the registry)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_checker(code: str) -> Type[Checker]:
    """Look up one rule by code; raises ``KeyError`` with the known codes."""
    from . import rules  # noqa: F401

    try:
        return _REGISTRY[code]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {code!r} (known: {known})") from None


def select_checkers(codes: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instantiate the selected rules (all of them when ``codes`` is None)."""
    if codes is None:
        return [checker() for checker in all_checkers()]
    return [get_checker(code)() for code in codes]

"""The ``repro lint`` command (also ``python -m repro.lint``).

Exit status: 0 when the tree is clean, 1 when findings were reported,
2 on usage errors -- the same contract ruff and mypy follow, so CI and
pre-commit can chain all three.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, List, Optional, TextIO, Union

from .base import all_checkers
from .cache import DEFAULT_CACHE_NAME
from .reporters import render_json, render_sarif, render_text
from .runner import lint_paths


def default_target() -> Path:
    """The ``repro`` package directory (what a bare ``repro lint`` checks)."""
    return Path(__file__).resolve().parent.parent


def add_lint_parser(subparsers: Any) -> None:
    """Register the ``lint`` subcommand on the top-level CLI."""
    parser = subparsers.add_parser(
        "lint",
        help="run the determinism & hot-path invariant checks (reprolint)",
        description=(
            "AST-based static analysis enforcing the determinism contract: "
            "REP001 no wall-clock in simulation layers, REP002 no global "
            "random, REP003 no order-sensitive set iteration, REP004 "
            "hot-path __slots__, REP005 no PYTHONHASHSEED hazards, REP006 "
            "guarded trace emission, REP007 listener copy-on-write, plus "
            "the whole-program pass: REP100 layer firewall, REP101 "
            "transitive wall-clock/env reachability."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help=(
            "report format (json is what CI uploads as an artifact; sarif "
            "feeds github code-scanning PR annotations)"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental lint cache for this run",
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        metavar="FILE",
        help=(
            "incremental cache location (default: ./"
            + DEFAULT_CACHE_NAME
            + " for full-tree runs; explicit path runs always cache)"
        ),
    )


def _list_rules(out: TextIO) -> int:
    for checker in all_checkers():
        print(f"{checker.code} ({checker.name})", file=out)
        rationale = checker.rationale()
        if rationale:
            for line in rationale.splitlines():
                print(f"    {line}", file=out)
        print(file=out)
    return 0


def _cache_path(args: argparse.Namespace) -> Optional[Path]:
    """Where this invocation caches, if anywhere.

    Explicit ``--cache-path`` always wins; ``--no-cache`` always wins over
    that.  Otherwise only the default full-tree run caches (in the current
    directory) -- ad-hoc single-file invocations would otherwise thrash
    the tree-level cache key on every call.
    """
    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_path", None)
    if explicit:
        return Path(explicit)
    if args.paths:
        return None
    return Path(DEFAULT_CACHE_NAME)


def run_lint(args: argparse.Namespace, out: TextIO) -> int:
    """Execute the ``lint`` subcommand; returns the process exit code."""
    if args.list_rules:
        return _list_rules(out)
    select = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    targets: List[Union[str, Path]] = (
        list(args.paths) if args.paths else [default_target()]
    )
    for target in targets:
        if not Path(target).exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
    result = lint_paths(targets, select=select, cache_path=_cache_path(args))
    render = {"json": render_json, "sarif": render_sarif}.get(args.format, render_text)
    print(render(result), file=out)
    return 0 if result.clean else 1


class _StandaloneSubparsers:
    """Adapter so ``add_lint_parser`` can build the standalone parser too --
    ``repro lint`` and ``python -m repro.lint`` share one flag definition."""

    def __init__(self) -> None:
        self.parser: Optional[argparse.ArgumentParser] = None

    def add_parser(self, _name: str, **kwargs: Any) -> argparse.ArgumentParser:
        kwargs.pop("help", None)
        self.parser = argparse.ArgumentParser(prog="repro lint", **kwargs)
        return self.parser


def main(argv: Optional[List[str]] = None, out: Optional[TextIO] = None) -> int:
    """Standalone entry point for ``python -m repro.lint``."""
    out = out if out is not None else sys.stdout
    standalone = _StandaloneSubparsers()
    add_lint_parser(standalone)
    assert standalone.parser is not None
    args = standalone.parser.parse_args(argv)
    return run_lint(args, out)

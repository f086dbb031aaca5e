"""The ``repro lint`` command (also ``python -m repro.lint``).

Exit status: 0 when the tree is clean, 1 when findings were reported,
2 on usage errors -- the same contract ruff and mypy follow, so CI and
pre-commit can chain all three.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, TextIO, Union

from .base import all_checkers
from .cache import DEFAULT_CACHE_NAME
from .reporters import render_json, render_sarif, render_text
from .runner import lint_paths


def default_target() -> Path:
    """The ``repro`` package directory (what a bare ``repro lint`` checks)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    """The one parser behind ``repro lint`` and ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based static checks of the hot-path and ordering invariants "
            "that the determinism tests cannot see (`--list-rules` prints them)."
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
    return parser


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
    directory) -- a save keeps only the files just linted, so an ad-hoc
    single-file invocation would otherwise empty the full-tree cache.
    """
    if args.no_cache:
        return None
    if args.cache_path:
        return Path(args.cache_path)
    if args.paths:
        return None
    return Path(DEFAULT_CACHE_NAME)


def main(argv: Optional[List[str]] = None, out: Optional[TextIO] = None) -> int:
    """Run ``repro lint`` with ``argv``; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
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

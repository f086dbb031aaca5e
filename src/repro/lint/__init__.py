"""reprolint: AST-based determinism and hot-path invariant checks.

Every guarantee the reproduction leans on -- bit-for-bit parallel==serial
sweeps, run-twice identity, golden-parity hot-path rewrites, draw-order
independent per-link RNG streams -- is a *convention*.  The golden tests
catch violations after the fact; this package names the hazard at the line
that introduces it, before a single simulation runs.

The subsystem is pluggable:

* :mod:`repro.lint.base` -- the :class:`~repro.lint.base.Checker` protocol
  (file-local rules), :class:`~repro.lint.base.ProjectChecker`
  (whole-program rules), and the rule registry,
* :mod:`repro.lint.layers` -- the layer map separating simulation code
  (``sim``/``net``/``mac``/``radio``/``routing``/``query``/``core``/
  ``baselines``/``scenarios``) from orchestration code (``orchestrator``/
  ``obs``/``experiments``/``cli``/...), the hot-path module list, and the
  reviewed cross-layer exemption table ``FIREWALL_EXEMPT_EDGES``,
* :mod:`repro.lint.graph` -- the project import/call graph the
  whole-program rules share (one build per lint run),
* :mod:`repro.lint.rules` -- the file-local REP001..REP007 rules and the
  whole-program REP100 (layer firewall) and REP101 (transitive wall-clock /
  environment reachability),
* :mod:`repro.lint.runner` -- file walking, suppression handling
  (``# reprolint: disable=REP0xx reason=...``) and the meta-rule REP000,
* :mod:`repro.lint.cache` -- the incremental cache keyed on content
  hashes (``.reprolint_cache.json``; ``--no-cache`` opts out),
* :mod:`repro.lint.reporters` -- text, JSON and SARIF output,
* :mod:`repro.lint.cli` -- the ``repro lint`` command (also runnable as
  ``python -m repro.lint``).

Runs in three places: ``python -m repro.cli lint`` for developers,
``tests/test_lint.py`` / ``tests/test_lint_graph.py`` as tier-1 gates
asserting the tree is clean, and the ``lint-determinism`` CI job which
uploads the SARIF report.  The static rules' runtime counterpart is
:mod:`repro.sanitizer`, which turns what the AST cannot see into hard
errors during sanitized runs.
"""

from __future__ import annotations

from .base import Checker, ProjectChecker, all_checkers, get_checker, register
from .findings import Finding
from .graph import ProjectGraph, build_project_graph
from .layers import HOT_PATH_MODULES, Layer, layer_of
from .reporters import render_json, render_sarif, render_text
from .runner import LintResult, lint_paths, lint_source

__all__ = [
    "Checker",
    "Finding",
    "HOT_PATH_MODULES",
    "Layer",
    "LintResult",
    "ProjectChecker",
    "ProjectGraph",
    "all_checkers",
    "build_project_graph",
    "get_checker",
    "layer_of",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
]

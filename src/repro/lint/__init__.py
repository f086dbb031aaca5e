"""reprolint: AST-based checks of the hot-path and ordering invariants.

The simulator's determinism is guarded at runtime: the byte-identical
goldens, the cross-hash-seed test, the ``REPRO_SANITIZE`` tripwires
(:mod:`repro.sanitizer`) and the import test that keeps orchestration code
out of the simulation packages.  A wall-clock read, a global ``random``
draw, ``hash()`` or an environment read on the event path fails one of
them.  This package checks what none of them can see, because it leaves
every result unchanged: an order-sensitive loop over a set of integers
(REP003), a hot-path class without ``__slots__`` (REP004), a trace payload
built while tracing is off (REP006) and a listener list mutated in place
(REP007).  ``repro lint --list-rules`` prints each rule with its rationale.

* :mod:`repro.lint.base` -- the :class:`~repro.lint.base.Checker` base
  class, the per-file context and the rule registry,
* :mod:`repro.lint.layers` -- the layer map separating simulation code
  (``sim``/``net``/``mac``/``radio``/``routing``/``query``/``core``/
  ``baselines``/``scenarios``) from orchestration code, and the hot-path
  module list,
* :mod:`repro.lint.rules` -- the rules,
* :mod:`repro.lint.runner` -- file walking, and REP000 for a file that does
  not parse,
* :mod:`repro.lint.cache` -- the incremental cache keyed on content
  hashes (``.reprolint_cache.json``; ``--no-cache`` opts out),
* :mod:`repro.lint.reporters` -- text, JSON and SARIF output,
* :mod:`repro.lint.cli` -- the ``repro lint`` command (also runnable as
  ``python -m repro.lint``).

Runs in three places: ``repro lint`` for developers, ``tests/test_lint.py``
as a tier-1 gate asserting the tree is clean, and the ``lint-determinism``
CI job, which uploads the SARIF report.
"""

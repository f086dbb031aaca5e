"""Runtime determinism sanitizer: tripwires for hazards that execute.

An AST scan or an import check sees *names*; it is blind to ``getattr``
indirection, C extensions, callbacks stored in containers, and any future
compiled fast path.  This package checks what actually runs instead.  It
is an opt-in mode that patches the hazardous entry points -- ``time.*``, module-level
``random.*``, ``os.environ`` reads -- with call-site-recording tripwires,
and wraps the known hot-site sets with an iteration guard, so *any*
determinism violation that actually executes during a simulation becomes
a hard :class:`~repro.sanitizer.runtime.DeterminismViolation` with the
offending stack trace, instead of a bit-level divergence discovered two
sweeps later.

Two ways in, both equivalent:

* ``REPRO_SANITIZE=1`` in the environment (any simulation-running
  subcommand; inherited by sweep workers),
* the ``determinism_sanitizer`` pytest fixture.

The tripwires are *armed* only while ``Simulator.run()`` is on the stack
(via the engine's ``run_watcher`` hook -- set from this side, so the
simulation layer never imports orchestration code): orchestration is free
to time sweeps and read configuration between runs.
"""

"""Observability subsystem: run counters and perf history.

* :mod:`repro.obs.adapters` -- folds the counters a finished simulation
  run already keeps (engine internals, channel/MAC/propagation counters,
  the ESSAT protocol stats objects) into one flat, sorted ``counters``
  dict.  It travels on :class:`~repro.experiments.metrics.RunMetrics`
  through the orchestrator result store, so sweeps are queryable after the
  fact.
* :mod:`repro.obs.history` -- an append-only JSONL time-series of benchmark
  results keyed by commit + host fingerprint, fed by
  ``benchmarks/test_hotpath_bench.py`` / ``test_orchestrator_bench.py`` and
  never overwritten (unlike the ``BENCH_*.json`` point snapshots).
* :mod:`repro.obs.report` -- trajectory figures over the history (through
  the existing :class:`~repro.experiments.tables.FigureResult` machinery),
  ``layer_breakdown`` profile diffs between two recorded entries, and the
  statistical regression check that replaces the crude >2x CI floor once a
  cell has enough recorded samples.

Event tracing lives with the simulator, in :mod:`repro.sim.trace`.

The ``repro perf`` CLI (``python -m repro.cli perf record|report|diff|check``)
is the operational front end; see :mod:`repro.obs.perfcli`.

Every name is imported from the module that defines it; this package
exports nothing.  A simulation or store replay loads only
:mod:`~repro.obs.adapters`: :mod:`~repro.obs.history`,
:mod:`~repro.obs.report` and :mod:`~repro.obs.perfcli` pull in
``subprocess`` and ``platform``, which a figure replay has no use for.
"""

"""Observability subsystem: run counters and perf history.

* :mod:`repro.obs.adapters` -- folds the counters a finished run already
  keeps (engine, channel, MAC, propagation, protocol stats) into one flat
  ``counters`` dict that travels on
  :class:`~repro.experiments.metrics.RunMetrics` through the result store.
* :mod:`repro.obs.history` -- the append-only JSONL perf history.
* :mod:`repro.obs.report` -- trajectory figures, profile diffs and the
  regression check over that history.
* :mod:`repro.obs.perfcli` -- the ``repro perf`` command group.

Event tracing lives with the simulator, in :mod:`repro.sim.trace`.

This package exports nothing, so a simulation or store replay loads only
:mod:`~repro.obs.adapters`, not the perf-history modules and the
``subprocess`` and ``platform`` they pull in.
"""

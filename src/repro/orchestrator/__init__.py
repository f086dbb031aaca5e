"""Sweep orchestration: parallel execution and content-addressed caching.

Every figure in the paper's evaluation is a sweep (rates x protocols x
replications) over independent simulation runs.  This package is the
scheduling layer above the simulation kernel: it turns each run into a
hashable :class:`~repro.orchestrator.jobs.RunJob`, fans jobs out over a
process pool (:mod:`~repro.orchestrator.executor`), memoises finished runs
in an on-disk content-addressed store (:mod:`~repro.orchestrator.store`),
and reports wall-clock progress (:mod:`~repro.orchestrator.progress`).

Specs and results cross process boundaries through
:mod:`~repro.orchestrator.codec`, which derives each dataclass's wire form
from its fields and versions the store's schema.

The sweep entry point is
:func:`~repro.orchestrator.api.run_experiments_with_jobs` (with
:func:`~repro.orchestrator.api.run_experiments` as its results-only view):
it executes whole experiments (replication fan-out plus metric averaging)
as one job sweep on a :class:`~repro.orchestrator.executor.SweepExecutor`.
"""

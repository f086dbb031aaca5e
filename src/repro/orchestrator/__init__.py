"""Sweep orchestration: parallel execution and content-addressed caching.

Every figure in the paper's evaluation is a sweep (rates x protocols x
replications) over independent simulation runs.  This package is the
scheduling layer above the simulation kernel: it turns each run into a
hashable :class:`~repro.orchestrator.jobs.RunJob`, memoises finished runs
in an on-disk content-addressed store (:mod:`~repro.orchestrator.store`),
and reports wall-clock progress (:mod:`~repro.orchestrator.progress`).

Specs and results cross process boundaries through
:mod:`~repro.orchestrator.codec`, which derives each dataclass's wire form
from its fields and versions the store's schema.

:func:`~repro.orchestrator.api.run_sweep` is the only function that starts
a sweep: it expands whole experiments into their replication jobs, runs
them as one job list (in process or on a process pool) and folds the
results back into one experiment result per spec.
"""

"""Sweep orchestration: parallel execution and content-addressed caching.

Every figure in the paper's evaluation is a sweep (rates x protocols x
replications) over independent simulation runs.  This package is the
scheduling layer above the simulation kernel: it turns each run into a
hashable :class:`~repro.orchestrator.jobs.RunJob`, fans jobs out over a
process pool (:mod:`~repro.orchestrator.executor`), memoises finished runs
in an on-disk content-addressed store (:mod:`~repro.orchestrator.store`),
and reports wall-clock progress (:mod:`~repro.orchestrator.progress`).

Specs and results cross process boundaries through the declarative codec
registry (:mod:`~repro.orchestrator.codec`), which also versions the
store's schema.

The sweep entry point is
:func:`~repro.orchestrator.api.run_experiments_with_jobs` (with
:func:`~repro.orchestrator.api.run_experiments` as its results-only view):
it executes whole experiments (replication fan-out plus metric averaging)
as one job sweep on a :class:`~repro.orchestrator.executor.SweepExecutor`.
"""

from .api import ExperimentSpec, run_experiments, run_experiments_with_jobs
from .codec import SCHEMA_VERSION, CodecError, codec_for, decode, encode
from .executor import JobResult, SweepExecutor, execute_job
from .jobs import (
    RunJob,
    expand_experiment,
    metrics_from_dict,
    metrics_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from .progress import NullProgress, ProgressReporter
from .store import ResultStore, open_store

__all__ = [
    "CodecError",
    "ExperimentSpec",
    "JobResult",
    "NullProgress",
    "ProgressReporter",
    "ResultStore",
    "RunJob",
    "SCHEMA_VERSION",
    "SweepExecutor",
    "codec_for",
    "decode",
    "encode",
    "execute_job",
    "expand_experiment",
    "metrics_from_dict",
    "metrics_to_dict",
    "open_store",
    "run_experiments",
    "run_experiments_with_jobs",
    "scenario_from_dict",
    "scenario_to_dict",
    "workload_from_dict",
    "workload_to_dict",
]

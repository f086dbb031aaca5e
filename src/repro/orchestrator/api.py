"""The sweep entry point: whole experiments through one job sweep.

:func:`run_experiments_with_jobs` is the one way the CLI, the figures,
:func:`repro.scenarios.run.run_family`, the experiment runner and the
benchmarks run a sweep; :func:`run_experiments` is its results-only view.
Each :class:`ExperimentSpec` (the declarative "one experiment" unit)
expands into its replication jobs, all specs' jobs are flattened into ONE
list and executed by a :class:`~repro.orchestrator.executor.SweepExecutor`,
and :func:`assemble_experiment` folds each experiment's per-replication
results back into an :class:`~repro.experiments.runner.ExperimentResult`.
Flattening is what makes figure sweeps parallel even at reduced scale,
where each experiment has a single replication: the fan-out is across
sweep points, not only across replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..experiments.metrics import average_metrics
from ..experiments.runner import ExperimentResult
from ..query.query import QuerySpec
from ..query.workload import WorkloadSpec
from ..experiments.config import ScenarioConfig
from .executor import JobResult, SweepExecutor
from .jobs import RunJob, expand_experiment
from .progress import NullProgress, ProgressReporter
from .store import ResultStore, open_store

#: What callers may pass as a store: nothing, a cache directory, or a store.
StoreLike = Union[None, str, Path, ResultStore]

#: What callers may pass as progress: nothing, ``True`` (stderr reporter),
#: or a reporter instance.
ProgressLike = Union[None, bool, NullProgress]


def _coerce_progress(progress: ProgressLike, label: str) -> NullProgress:
    if progress is None or progress is False:
        return NullProgress()
    if progress is True:
        return ProgressReporter(label=label)
    return progress


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a protocol under a scenario with a workload and runs.

    The orchestrated equivalent of one
    :func:`repro.experiments.runner.run_experiment` call.
    """

    scenario: ScenarioConfig
    protocol: str
    workload: Optional[WorkloadSpec] = None
    queries: Optional[Sequence[QuerySpec]] = None
    num_runs: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.queries is None):
            raise ValueError("provide exactly one of `workload` or `queries`")

    def expand(self) -> List[RunJob]:
        """The replication jobs of this experiment."""
        return expand_experiment(
            self.scenario,
            self.protocol,
            workload=self.workload,
            queries=self.queries,
            num_runs=self.num_runs,
        )


def assemble_experiment(
    spec: ExperimentSpec, job_results: Sequence[JobResult]
) -> ExperimentResult:
    """Fold one experiment's per-replication results into a result object."""
    per_run = [result.metrics for result in job_results]
    per_run_extras = [result.extras for result in job_results]
    per_run_queries = [result.job.resolve_queries() for result in job_results]
    extra_keys = {key for extras in per_run_extras for key in extras}
    combined_extras = {
        key: sum(extras.get(key, 0.0) for extras in per_run_extras) / len(per_run_extras)
        for key in sorted(extra_keys)
    }
    return ExperimentResult(
        protocol=spec.protocol,
        scenario=spec.scenario,
        queries=list(per_run_queries[0]),
        metrics=average_metrics(per_run),
        per_run_metrics=per_run,
        per_run_queries=per_run_queries,
        extras=combined_extras,
    )


def run_experiments_with_jobs(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
    label: str = "sweep",
) -> Tuple[List[ExperimentResult], List[JobResult]]:
    """Run many experiments through one flattened job sweep.

    ``jobs=1`` is a plain in-process loop; ``jobs>1`` fans the jobs
    out over a process pool, with bit-identical metrics either way.
    ``store`` may be a cache directory path or an open
    :class:`ResultStore`; jobs found there are returned without running
    the simulator.  ``progress`` is ``True`` for a stderr reporter
    labelled ``label``, or any :class:`NullProgress`-compatible object.

    Returns the per-spec :class:`ExperimentResult` objects (input order)
    plus the raw per-job results, whose ``cached`` flags tell callers how
    much of the sweep came from the store.
    """
    specs = list(specs)
    run_jobs: List[RunJob] = []
    spans: List[Tuple[int, int]] = []
    for spec in specs:
        expanded = spec.expand()
        spans.append((len(run_jobs), len(run_jobs) + len(expanded)))
        run_jobs.extend(expanded)
    executor = SweepExecutor(
        workers=jobs,
        store=open_store(store),
        progress=_coerce_progress(progress, label),
    )
    results = executor.run(run_jobs)
    assembled = [
        assemble_experiment(spec, results[start:stop])
        for spec, (start, stop) in zip(specs, spans, strict=True)
    ]
    return assembled, results


def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
    label: str = "sweep",
) -> List[ExperimentResult]:
    """Like :func:`run_experiments_with_jobs`, results only.

    Returns one :class:`ExperimentResult` per spec, in input order, with
    metrics identical to calling ``run_experiment`` on each spec serially.
    """
    assembled, _ = run_experiments_with_jobs(
        specs, jobs=jobs, store=store, progress=progress, label=label
    )
    return assembled

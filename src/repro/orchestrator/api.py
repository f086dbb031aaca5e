"""The sweep entry point: :func:`run_sweep` runs every sweep.

The figures, the CLI's ``compare``, the examples and the benchmarks all
start a sweep here.  Each
:class:`ExperimentSpec` (the declarative "one experiment" unit) expands
into its replication jobs, all specs' jobs are flattened into ONE list and
executed once, and :func:`assemble_experiment` folds each experiment's
per-replication :class:`JobResult` objects back into an
:class:`ExperimentResult`.  Flattening is what makes figure sweeps parallel
even at reduced scale, where each experiment has a single replication: the
fan-out is across sweep points, not only across replications.

A job is executed by resolving its queries and calling
:func:`repro.experiments.runner.run_single` with the job's seed.  Parallel
results are therefore bit-identical to serial ones: each simulation run
owns its whole random universe, so execution order and process boundaries
cannot perturb it.  Identical jobs (same content digest) within one sweep
run once, and jobs already in the result store do not run at all.  Pending
jobs run in a plain in-process loop for ``jobs=1`` (or a single pending
job), and otherwise on a process pool created for the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..experiments.config import ScenarioConfig
from ..experiments.metrics import RunMetrics, average_metrics
from ..experiments.runner import run_single
from ..query.query import QuerySpec
from ..query.workload import WorkloadSpec
from .jobs import RunJob, metrics_from_dict, metrics_to_dict
from .progress import NullProgress, ProgressReporter
from .store import ResultStore, open_store

#: What callers may pass as a store: nothing, a cache directory, or a store.
StoreLike = Union[None, str, Path, ResultStore]

#: What callers may pass as progress: nothing, ``True`` (stderr reporter),
#: or a reporter instance.
ProgressLike = Union[None, bool, NullProgress]


@dataclass
class JobResult:
    """Outcome of one job: its metrics plus execution metadata."""

    job: RunJob
    metrics: RunMetrics
    extras: Dict[str, float] = field(default_factory=dict)
    #: Whether the result came from the store, or from an identical job
    #: earlier in the same sweep, instead of a simulator run of its own.
    cached: bool = False
    #: Wall-clock seconds of the simulator run that produced the result
    #: (the original run's cost for cached results).
    elapsed: float = 0.0


def execute_job(job: RunJob) -> Tuple[RunMetrics, Dict[str, float], float]:
    """Run one job's simulation; returns (metrics, extras, elapsed seconds).

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    ship it to worker processes by reference.
    """
    started = time.perf_counter()
    metrics, extras = run_single(job.scenario, job.protocol, job.resolve_queries(), job.seed)
    return metrics, extras, time.perf_counter() - started


def _record_for(result: JobResult) -> Dict[str, object]:
    """The JSON record persisted to the store for a finished job."""
    return {
        "job": result.job.to_dict(),
        "metrics": metrics_to_dict(result.metrics),
        "extras": dict(result.extras),
        "elapsed": result.elapsed,
    }


def _result_from_record(job: RunJob, record: Dict[str, object]) -> JobResult:
    return JobResult(
        job=job,
        metrics=metrics_from_dict(record["metrics"]),  # type: ignore[arg-type]
        extras=dict(record.get("extras", {})),  # type: ignore[arg-type]
        cached=True,
        elapsed=float(record.get("elapsed", 0.0)),  # type: ignore[arg-type]
    )


def _run_jobs(
    jobs: Sequence[RunJob],
    workers: int,
    store: Optional[ResultStore],
    progress: NullProgress,
) -> List[JobResult]:
    """Execute ``jobs`` and return their results in input order.

    Each unique digest is looked up in ``store`` or run once; newly run
    results are persisted as they finish.  Every later job with the same
    digest gets its own copy of the result, flagged ``cached``.
    """
    progress.start(len(jobs))
    results: List[Optional[JobResult]] = [None] * len(jobs)
    by_digest: Dict[str, List[int]] = {}
    for index, job in enumerate(jobs):
        by_digest.setdefault(job.digest, []).append(index)

    def fan_out(digest: str, result: JobResult) -> None:
        for position, index in enumerate(by_digest[digest]):
            if position:
                result = replace(result, cached=True)
            results[index] = result
            progress.job_done(cached=result.cached, label=jobs[index].describe())

    pending: List[Tuple[str, RunJob]] = []
    for digest, indices in by_digest.items():
        record = store.get(digest) if store is not None else None
        if record is not None:
            fan_out(digest, _result_from_record(jobs[indices[0]], record))
        else:
            pending.append((digest, jobs[indices[0]]))

    def complete(
        digest: str, job: RunJob, metrics: RunMetrics, extras: Dict[str, float], elapsed: float
    ) -> None:
        result = JobResult(job=job, metrics=metrics, extras=extras, elapsed=elapsed)
        if store is not None:
            store.put(digest, _record_for(result))
        fan_out(digest, result)

    if workers > 1 and len(pending) > 1:
        # Imported here so a warm replay never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {pool.submit(execute_job, job): (digest, job) for digest, job in pending}
            for future in as_completed(futures):
                complete(*futures[future], *future.result())
    else:
        for digest, job in pending:
            complete(digest, job, *execute_job(job))

    progress.finish()
    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a protocol under a scenario with a workload and runs.

    Exactly one of ``workload`` (queries generated per replication with that
    replication's seed, as in the paper where query start times vary per
    run) or ``queries`` (fixed across replications) is set.
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
        """One :class:`RunJob` per replication, seeded ``scenario.seed + i``."""
        runs = self.num_runs if self.num_runs is not None else self.scenario.num_runs
        if runs <= 0:
            raise ValueError(f"number of runs must be positive, got {runs!r}")
        fixed = None if self.queries is None else tuple(self.queries)
        return [
            RunJob(
                scenario=self.scenario,
                protocol=self.protocol,
                seed=self.scenario.seed + replication,
                workload=self.workload,
                queries=fixed,
            )
            for replication in range(runs)
        ]


@dataclass
class ExperimentResult:
    """Everything produced by one (possibly replicated) experiment."""

    protocol: str
    scenario: ScenarioConfig
    #: The replications' metrics, averaged.
    metrics: RunMetrics
    #: Every replication's job result, in replication order.
    runs: List[JobResult]
    #: Optional extra outputs specific protocols expose (e.g. DTS overhead),
    #: averaged over the replications.
    extras: Dict[str, float] = field(default_factory=dict)


def assemble_experiment(spec: ExperimentSpec, runs: Sequence[JobResult]) -> ExperimentResult:
    """Fold one experiment's per-replication results into a result object."""
    extra_keys = {key for run in runs for key in run.extras}
    return ExperimentResult(
        protocol=spec.protocol,
        scenario=spec.scenario,
        metrics=average_metrics([run.metrics for run in runs]),
        runs=list(runs),
        extras={
            key: sum(run.extras.get(key, 0.0) for run in runs) / len(runs)
            for key in sorted(extra_keys)
        },
    )


def run_sweep(
    specs: Sequence[ExperimentSpec],
    *,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
    label: str = "sweep",
) -> List[ExperimentResult]:
    """Run many experiments through one flattened job sweep.

    ``jobs=1`` is a plain in-process loop; ``jobs>1`` fans the jobs
    out over a process pool, with bit-identical metrics either way.
    ``store`` may be a cache directory path or an open
    :class:`ResultStore`; jobs found there are returned without running
    the simulator.  ``progress`` is ``True`` for a stderr reporter
    labelled ``label``, or any :class:`NullProgress`-compatible object.

    Returns one :class:`ExperimentResult` per spec, in input order; the
    ``cached`` flags of its ``runs`` tell how much came from the store.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if progress is None or progress is False:
        progress = NullProgress()
    elif progress is True:
        progress = ProgressReporter(label=label)
    specs = list(specs)
    expanded = [spec.expand() for spec in specs]
    flat = [job for batch in expanded for job in batch]
    results = iter(_run_jobs(flat, jobs, open_store(store), progress))
    return [
        assemble_experiment(spec, list(islice(results, len(batch))))
        for spec, batch in zip(specs, expanded, strict=True)
    ]

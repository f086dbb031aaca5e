"""Sweep execution: serial or process-pool fan-out of run jobs.

The executor is deliberately dumb about *what* it runs: a job is executed
by resolving its queries and calling the same
:func:`repro.experiments.runner.run_single` the serial harness always
used, with the same per-replication seed.  Parallel results are therefore
bit-identical to serial ones -- each simulation run owns its whole random
universe (seeded by the job), so execution order and process boundaries
cannot perturb it.

Identical jobs (same content digest) within one sweep are executed once
and their result fanned out, and jobs already present in the result store
are not executed at all.  Pending jobs run in a plain in-process loop for
``workers=1`` (or a single pending job), and otherwise on a
:class:`~concurrent.futures.ProcessPoolExecutor` created for the sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.metrics import RunMetrics
from ..experiments.runner import run_single
from .jobs import RunJob, metrics_from_dict, metrics_to_dict
from .progress import NullProgress
from .store import ResultStore


@dataclass
class JobResult:
    """Outcome of one job: its metrics plus execution metadata."""

    job: RunJob
    metrics: RunMetrics
    extras: Dict[str, float] = field(default_factory=dict)
    #: Whether the result came from the store instead of a simulator run.
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


class SweepExecutor:
    """Executes batches of :class:`RunJob` with caching and fan-out.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs every job in
        the calling process -- the deterministic serial fallback used by
        tests and by the classic ``run_experiment`` path.
    store:
        Optional :class:`~repro.orchestrator.store.ResultStore`; jobs whose
        digest is already stored are returned from it without running the
        simulator, and newly executed jobs are persisted as they finish.
    progress:
        A :class:`~repro.orchestrator.progress.NullProgress`-compatible
        reporter.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        store: Optional[ResultStore] = None,
        progress: Optional[NullProgress] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self.store = store
        self.progress = progress if progress is not None else NullProgress()
        #: Counters for the last :meth:`run` call (inspected by benchmarks):
        #: ``last_executed`` counts actual simulator runs, ``last_cached``
        #: counts jobs satisfied from the store or from an identical job
        #: executed in the same sweep.
        self.last_executed = 0
        self.last_cached = 0

    def run(self, jobs: Sequence[RunJob]) -> List[JobResult]:
        """Execute ``jobs`` and return their results in input order."""
        jobs = list(jobs)
        self.progress.start(len(jobs))
        results: List[Optional[JobResult]] = [None] * len(jobs)
        self.last_executed = 0
        self.last_cached = 0

        # Group identical jobs so each unique digest runs at most once.
        by_digest: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            by_digest.setdefault(job.digest, []).append(index)

        pending: List[Tuple[str, RunJob]] = []
        for digest, indices in by_digest.items():
            record = self.store.get(digest) if self.store is not None else None
            if record is not None:
                cached = _result_from_record(jobs[indices[0]], record)
                for index in indices:
                    results[index] = cached
                    self.last_cached += 1
                    self.progress.job_done(cached=True, label=jobs[index].describe())
            else:
                pending.append((digest, jobs[indices[0]]))

        if self.workers > 1 and len(pending) > 1:
            # Imported here so a warm replay never loads multiprocessing.
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
                futures = {
                    pool.submit(execute_job, job): (digest, job) for digest, job in pending
                }
                for future in as_completed(futures):
                    digest, job = futures[future]
                    self._complete(digest, job, *future.result(), by_digest, results)
        else:
            for digest, job in pending:
                self._complete(digest, job, *execute_job(job), by_digest, results)

        self.progress.finish()
        return [result for result in results if result is not None]

    def _complete(
        self,
        digest: str,
        job: RunJob,
        metrics: RunMetrics,
        extras: Dict[str, float],
        elapsed: float,
        by_digest: Dict[str, List[int]],
        results: List[Optional[JobResult]],
    ) -> None:
        result = JobResult(job=job, metrics=metrics, extras=extras, elapsed=elapsed)
        if self.store is not None:
            self.store.put(digest, _record_for(result))
        # Only the first index of a duplicate-digest group performed a
        # simulator run; the rest reuse its result and count as cached.
        for position, index in enumerate(by_digest[digest]):
            results[index] = result
            if position == 0:
                self.last_executed += 1
                self.progress.job_done(cached=False, label=job.describe())
            else:
                self.last_cached += 1
                self.progress.job_done(cached=True, label=job.describe())

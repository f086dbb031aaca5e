"""Benchmark: orchestrated sweep throughput (serial vs parallel vs cached).

Runs one reduced-scale multi-point sweep three ways through
:func:`repro.orchestrator.api.run_sweep`:

1. serial (``jobs=1``, no store),
2. parallel (``jobs=min(4, cpu_count)``),
3. a warm-store replay (every job a cache hit, zero simulator runs),

asserts all three produce identical metrics, and records the wall-clock
numbers into ``BENCH_orchestrator.json`` at the repository root (see
``conftest.record_orchestrator_bench``).  On a single-core machine the
parallel run only demonstrates correctness, not speedup; the JSON records
``cpu_count`` so trajectory comparisons can account for that.
"""

from __future__ import annotations

import os
import time

from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.orchestrator.store import ResultStore

#: The sweep: two ESSAT protocols at the rate-sweep end points.
SWEEP_PROTOCOLS = ("DTS-SS", "STS-SS")
SWEEP_RATES = (1.0, 5.0)


def _sweep_specs(scenario):
    return [
        ExperimentSpec(
            scenario=scenario,
            protocol=protocol,
            workload=rate_sweep_workload(rate),
            num_runs=1,
        )
        for protocol in SWEEP_PROTOCOLS
        for rate in SWEEP_RATES
    ]


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_orchestrator_sweep_throughput(
    scale, tmp_path, run_once, orchestrator_bench_recorder
) -> None:
    scenario = scale.scenario()
    specs = _sweep_specs(scenario)
    workers = min(4, os.cpu_count() or 1)

    serial, serial_s = _timed(lambda: run_sweep(specs, jobs=1))
    parallel, parallel_s = _timed(lambda: run_sweep(specs, jobs=workers))

    store = ResultStore(tmp_path / "bench-store")
    _, cold_store_s = _timed(lambda: run_sweep(specs, jobs=1, store=store))
    warm, warm_s = _timed(lambda: run_sweep(specs, jobs=1, store=store))

    # Correctness: all execution modes agree bit-for-bit.
    for a, b, c in zip(serial, parallel, warm, strict=True):
        assert a.metrics.average_duty_cycle == b.metrics.average_duty_cycle
        assert a.metrics.average_duty_cycle == c.metrics.average_duty_cycle
        assert a.metrics.average_query_latency == b.metrics.average_query_latency
        assert a.metrics.average_query_latency == c.metrics.average_query_latency

    # The warm replay must be pure cache: it performs zero simulator runs.
    runs = [run for result in warm for run in result.runs]
    assert all(run.cached for run in runs)
    assert warm_s < serial_s

    orchestrator_bench_recorder(
        {
            "sweep": {
                "protocols": list(SWEEP_PROTOCOLS),
                "rates": list(SWEEP_RATES),
                "num_nodes": scenario.num_nodes,
                "duration_s": scenario.duration,
                "num_jobs": len(runs),
            },
            "cpu_count": os.cpu_count(),
            "parallel_workers": workers,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s > 0 else None,
            "cold_store_seconds": cold_store_s,
            "warm_store_seconds": warm_s,
        }
    )

    # One extra serial pass under pytest-benchmark so this sweep shows up in
    # the benchmark table alongside the figure sweeps.
    run_once(run_sweep, specs, jobs=1)

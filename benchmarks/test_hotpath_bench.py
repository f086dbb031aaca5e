"""Benchmark: simulation hot-path throughput (events/sec), ``BENCH_hotpath.json``.

Measures the overhauled engine + channel + protocol hot path and records
everything into ``BENCH_hotpath.json`` at the repository root (see
``conftest.record_hotpath_bench``):

1. **Simulator kernel** -- a pure engine event storm (self-rescheduling
   callbacks plus cancelled timers, no model code).  This isolates exactly
   the layers the PR 3 hot-path overhaul rewrote: event allocation, heap
   ordering, lazy deletion, dispatch.
2. **Densest reduced-scale network** -- one replication per protocol
   (DTS-SS and the contention-heavy PSM baseline) with the reduced
   scenario's node count doubled to 72 in the same area, events/sec over
   the ``sim.run`` wall time only (topology construction and metric
   collection excluded), plus a ``--jobs``-style parallel sweep of the
   identical jobs through the orchestrator (parallel events/sec derives
   from the serial per-run event counts, which are deterministic).
3. **Propagation models** -- the reduced scenario under the SINR and
   shadowing reception strategies (no baseline; trajectory only).
4. **Protocol-layer cells (PR 5)** -- the paper's high-query-count workload
   (Figures 4/7: 0.2 Hz, ``queries_per_class`` at the sweep maximum of 10,
   i.e. 30 concurrent queries) at reduced scale.  Their cost is dominated
   by per-event Safe Sleep re-evaluation over many queries, not by the
   engine or channel.
5. **Layer breakdown** -- a profiled reduced-scale DTS-SS replication with
   ``sim.run`` time bucketed per layer (engine / channel+radio / MAC /
   protocol), the machine-readable source for the README's "where the time
   goes" table.

Each cell runs once.  Paper-scale runs are timed by ``perfbench/`` only:
its ``paper_queries_dts`` and ``paper_rate_psm`` workloads are the 80-node,
200-s runs, reported in wall seconds per simulated second.

Speedups are reported against committed pre-overhaul baselines (below).
The PR 3 cells were measured at commit b64b1b1 (PR 2) and the PR 5 protocol
cells at commit f67b7e9 (PR 4), each on this repository's dev container
(best of 2-3), so the *ratios* are the meaningful trajectory numbers; the
guard only fails when a cell regresses more than 2x below its baseline,
which absorbs ordinary machine variance.
"""

from __future__ import annotations

import cProfile
import os
import platform
import pstats
import time

from repro.experiments.config import reduced_scale
from repro.experiments.runner import assemble_run
from repro.experiments.scenarios import query_count_workload, rate_sweep_workload
from repro.net.propagation import PropagationSpec
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.orchestrator.jobs import RunJob
from repro.sim.engine import Simulator

#: Pre-overhaul events/sec.  The PR 3 cells were measured at commit b64b1b1
#: (PR 2, best of 3); the PR 5 protocol-layer cells at commit f67b7e9
#: (PR 4, best of 2) -- both on the dev container.  Keys match the cells
#: recorded below.
PRE_PR_BASELINES = {
    "kernel": 198_387,
    "densest_density/DTS-SS": 94_326,
    "densest_density/PSM": 39_898,
    # PR 5 protocol-layer cells (paper workload: 0.2 Hz, 10 queries/class).
    "reduced_queries/DTS-SS": 169_271,
    "reduced_queries/PSM": 151_240,
}

#: Queries-per-class of the protocol-layer cells: the maximum of the paper's
#: Figure 4/7 sweep.
PAPER_QUERIES_PER_CLASS = 10

#: A cell fails the benchmark only if it regresses more than this factor
#: below its committed baseline (machine variance headroom; the committed
#: BENCH_hotpath.json documents the actually-achieved speedups).
REGRESSION_FLOOR = 0.5

PROTOCOLS = ("DTS-SS", "PSM")

#: Events fired by the kernel storm.
KERNEL_EVENTS = 400_000


def _kernel_storm() -> dict:
    """Pure-engine throughput: schedule/fire/cancel with no model work."""
    sim = Simulator(seed=0)
    count = [0]

    def tick(i: int) -> None:
        count[0] += 1
        handle = sim.schedule_in(0.001, tick, i)
        if count[0] % 2 == 0:
            sim.cancel(handle)  # exercise lazy deletion
            sim.schedule_in(0.0005, tick, i)

    for i in range(100):
        sim.schedule_in(0.001 * (i + 1) / 100, tick, i)
    started = time.perf_counter()
    sim.run(max_events=KERNEL_EVENTS)
    seconds = time.perf_counter() - started
    return {
        "events": sim.processed_events,
        "seconds": seconds,
        "events_per_sec": sim.processed_events / seconds,
    }


def _run_cell(scenario, workload, protocol: str) -> dict:
    """One full replication; events/sec over the ``sim.run`` time only."""
    queries = RunJob(
        scenario=scenario, protocol=protocol, workload=workload, seed=scenario.seed
    ).resolve_queries()
    sim = assemble_run(scenario, protocol, queries, scenario.seed).sim
    started = time.perf_counter()
    sim.run(until=scenario.duration)
    seconds = time.perf_counter() - started
    events = sim.processed_events
    return {"events": events, "seconds": seconds, "events_per_sec": events / seconds}


def _parallel_sweep(scenario, workload, serial_events: int) -> dict:
    """The same jobs fanned out with ``--jobs``-style workers.

    Parallel wall time includes worker start-up; events/sec derives from the
    (deterministic) serial event counts of the identical jobs.
    """
    workers = min(2, os.cpu_count() or 1)
    specs = [
        ExperimentSpec(scenario=scenario, protocol=protocol, workload=workload, num_runs=1)
        for protocol in PROTOCOLS
    ]
    started = time.perf_counter()
    run_sweep(specs, jobs=workers)
    seconds = time.perf_counter() - started
    return {
        "workers": workers,
        "jobs": len(specs),
        "seconds": seconds,
        "events": serial_events,
        "events_per_sec": serial_events / seconds,
    }


def _with_speedup(key: str, cell: dict) -> dict:
    baseline = PRE_PR_BASELINES.get(key)
    if baseline:
        cell = dict(cell, pre_pr_events_per_sec=baseline, speedup_vs_pre_pr=cell["events_per_sec"] / baseline)
    return cell


#: Module-path prefixes -> layer names for the profiled breakdown.  C-level
#: heap/builtin frames carry no filename; they are bucketed as "stdlib".
_LAYER_PREFIXES = (
    ("repro/sim/", "engine"),
    ("repro/net/", "channel"),
    ("repro/radio/", "radio"),
    ("repro/mac/", "mac"),
    ("repro/core/", "protocol"),
    ("repro/query/", "protocol"),
)


def _layer_breakdown(scenario, workload, protocol: str = "DTS-SS") -> dict:
    """Profile one replication; bucket ``sim.run`` self-time per layer.

    The source for the README's "where the time goes" table: fractions of
    profiled self-time spent in the engine, the channel+radio, the MAC and
    the protocol layer (shapers, Safe Sleep, timing table, query service).
    """
    queries = RunJob(
        scenario=scenario, protocol=protocol, workload=workload, seed=scenario.seed
    ).resolve_queries()
    sim = assemble_run(scenario, protocol, queries, scenario.seed).sim
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=scenario.duration)
    profile.disable()

    buckets = {
        "engine": 0.0, "channel": 0.0, "radio": 0.0, "mac": 0.0, "protocol": 0.0, "stdlib": 0.0
    }
    total = 0.0
    for (filename, _lineno, _name), (_cc, _nc, tottime, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        total += tottime
        path = filename.replace("\\", "/")
        for prefix, layer in _LAYER_PREFIXES:
            if prefix in path:
                buckets[layer] += tottime
                break
        else:
            buckets["stdlib"] += tottime
    if total <= 0:
        return {"protocol": protocol, "fractions": {}}
    return {
        "protocol": protocol,
        "events": sim.processed_events,
        "profiled_seconds": round(total, 3),
        "fractions": {layer: round(seconds / total, 4) for layer, seconds in buckets.items()},
    }


def test_hotpath_throughput(hotpath_bench_recorder) -> None:
    results: dict = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "regression_floor": REGRESSION_FLOOR,
        "pre_pr_baselines": dict(PRE_PR_BASELINES),
        "methodology": (
            "serial cells time one sim.run each; parallel cells time the "
            "orchestrated sweep wall clock; speedups are vs commit b64b1b1 on the "
            "same machine"
        ),
    }

    results["kernel"] = _with_speedup("kernel", _kernel_storm())

    workload = rate_sweep_workload(2.0)
    densest = reduced_scale().with_overrides(num_nodes=72)
    dense_cells = {}
    dense_events_total = 0
    for protocol in PROTOCOLS:
        cell = _run_cell(densest, workload, protocol)
        dense_events_total += cell["events"]
        dense_cells[protocol] = _with_speedup(f"densest_density/{protocol}", cell)
    dense_cells["variant"] = {
        "label": f"n={densest.num_nodes}",
        "num_nodes": densest.num_nodes,
        "duration_s": densest.duration,
    }
    dense_cells["parallel"] = _parallel_sweep(densest, workload, dense_events_total)
    results["densest_density"] = dense_cells

    # Propagation-layer cells (PR 4): the same reduced-scale scenario under
    # the non-default reception strategies.  Recorded for trajectory only --
    # there is no pre-PR baseline because the models did not exist; the
    # guarded cells above pin that the *default* unit-disk path kept its
    # speed with the strategy indirection in place.
    reduced = reduced_scale()
    results["propagation_models"] = {
        "sinr": _run_cell(
            reduced.with_overrides(
                propagation=PropagationSpec.make("sinr", capture_db=6.0)
            ),
            workload,
            "DTS-SS",
        ),
        "shadowing": _run_cell(
            reduced.with_overrides(
                propagation=PropagationSpec.make("shadowing", sigma_db=4.0)
            ),
            workload,
            "DTS-SS",
        ),
    }

    # Protocol-layer cells (PR 5): the paper's Figure 4/7 multi-query
    # workload, whose per-event cost is dominated by the shaper / timing
    # table / Safe Sleep machinery rather than the engine or channel.
    queries_workload = query_count_workload(PAPER_QUERIES_PER_CLASS)
    reduced_query_cells = {}
    for protocol in PROTOCOLS:
        cell = _run_cell(reduced, queries_workload, protocol)
        reduced_query_cells[protocol] = _with_speedup(f"reduced_queries/{protocol}", cell)
    reduced_query_cells["workload"] = {
        "base_rate_hz": 0.2,
        "queries_per_class": PAPER_QUERIES_PER_CLASS,
    }
    results["reduced_queries"] = reduced_query_cells

    # Where the time goes: profiled per-layer breakdown of one reduced-scale
    # DTS-SS replication (the README table's machine-readable source).
    results["layer_breakdown"] = _layer_breakdown(reduced, queries_workload)

    hotpath_bench_recorder(results)

    # Regression guard: every measured cell must stay within REGRESSION_FLOOR
    # of its committed baseline.
    failures = []
    for key, baseline in PRE_PR_BASELINES.items():
        section, _, protocol = key.partition("/")
        cell = results[section]
        if protocol:
            cell = cell[protocol]
        if cell["events_per_sec"] < baseline * REGRESSION_FLOOR:
            failures.append(
                f"{key}: {cell['events_per_sec']:.0f} ev/s < "
                f"{REGRESSION_FLOOR} x baseline {baseline}"
            )
    assert not failures, "hot-path throughput regressed: " + "; ".join(failures)

"""One measured step of the benchmark, run in a fresh interpreter.

The runner (``run.py``) starts this script for each step, waits for it,
and reads the JSON object it prints last.  Times come from
``time.perf_counter``, the system-wide monotonic clock on Linux, so ``t0``
-- the runner's clock reading just before it started this interpreter --
lets a step report time from process start, interpreter start-up and
imports included.  With ``"meter": true`` the step probes the host's speed
(``speed.py``) from before its imports until its last measured boundary,
and the end-to-end times it reports are scaled to the reference speed.
Per-layer times stay raw (probes left out); traced steps run unmetered.

    PYTHONPATH=src python3 perfbench/cell.py '{"mode": "setup", "workload":
        "paper_rate_psm", "seed": 1, "t0": <perf_counter>, "meter": true,
        "out": "<dir>"}'

Modes: ``setup``/``run``/``replay`` for the paper-scale simulation cells,
``fig_setup``/``fig_cold``/``fig_warm``/``fig_cells`` for the figure, and
``imports`` (import only, for ``-X importtime``).  Every call into the
program goes through its public functions; nothing under ``src/`` is
patched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from speed import SpeedMeter

#: This step's host-speed probes, started before the program's imports.
METER = SpeedMeter()
if __name__ == "__main__" and json.loads(sys.argv[1]).get("meter"):
    METER.start()

from repro.experiments.config import paper_scale, reduced_scale  # noqa: E402
from repro.experiments.figures import figure3_duty_cycle_vs_rate
from repro.experiments.metrics import DeliveryLog, collect_metrics
from repro.experiments.runner import build_protocol_suite, build_scenario_topology
from repro.experiments.scenarios import query_count_workload, rate_sweep_workload
from repro.net.loss import build_loss_from_spec
from repro.net.node import build_network
from repro.net.propagation import build_propagation_from_spec
from repro.obs.adapters import collect_run_counters, stats_as_mapping
from repro.orchestrator.jobs import RunJob, metrics_from_dict, metrics_to_dict, query_to_dict
from repro.orchestrator.progress import NullProgress
from repro.orchestrator.store import open_store
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

from tracing import TracingSimulator, layer_of  # noqa: E402
from workloads import (  # noqa: E402
    FIGURE_PROTOCOLS,
    FIGURE_RATES,
    FIGURE_RUNS,
    FIGURE_WORKERS,
    HOT_CALLBACKS,
    PINNED_INPUT_SEED,
    REFERENCE_SEED,
    SIM_WORKLOADS,
    TRACED_LAYERS,
)

IMPORTED = time.perf_counter()

clock = time.perf_counter


def sha256_json(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def metrics_digest(metrics: Dict[str, Any]) -> str:
    """Digest of a stored ``RunMetrics`` record's simulated outcome.

    Covers duty cycles, latencies, deliveries, channel stats and every layer
    counter; leaves out the engine's own bookkeeping (``engine.*``: event
    and heap totals, which a pure-performance change may move) and wall
    clock (``run.*``).
    """
    outcome = dict(metrics)
    outcome["counters"] = {
        key: value
        for key, value in metrics.get("counters", {}).items()
        if not key.startswith(("engine.", "run."))
    }
    return sha256_json(outcome)


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its finished children, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Cell:
    """One simulation run's inputs: what ``run_single`` would be handed."""

    def __init__(self, scenario, protocol: str, queries, seed: int, placement_seed: int) -> None:
        self.scenario = scenario
        self.protocol = protocol
        self.queries = list(queries)
        self.seed = seed
        self.placement_seed = placement_seed

    @classmethod
    def for_workload(cls, workload: str, seed: int) -> "Cell":
        protocol, kind, value = SIM_WORKLOADS[workload]
        spec = query_count_workload(value) if kind == "queries" else rate_sweep_workload(value)
        scenario = paper_scale()
        queries = RunJob(
            scenario=scenario, protocol=protocol, workload=spec, seed=PINNED_INPUT_SEED
        ).resolve_queries()
        return cls(scenario, protocol, queries, seed, PINNED_INPUT_SEED)

    @classmethod
    def for_job(cls, job: RunJob) -> "Cell":
        return cls(job.scenario, job.protocol, job.resolve_queries(), job.seed, job.seed)

    def describe(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "num_nodes": self.scenario.num_nodes,
            "duration": self.scenario.duration,
            "queries": [query_to_dict(query) for query in self.queries],
            "seed": self.seed,
            "placement_seed": self.placement_seed,
        }


class Assembly:
    """A cell built layer by layer, with each public call timed.

    Mirrors :func:`repro.experiments.runner.run_single` for scenarios without
    failure schedules or mobility (none of the benchmark's cells has them).
    """

    def __init__(self, cell: Cell, simulator_cls=Simulator) -> None:
        scenario, seed = cell.scenario, cell.seed
        self.cell = cell
        self.timings: Dict[str, float] = {}
        self.spans: List[Tuple[str, float, float]] = []
        self.sim = simulator_cls(seed=seed, trace=TraceRecorder(enabled=False))
        start = clock()
        self.topology = build_scenario_topology(scenario, cell.placement_seed)
        self._timed("net.topology_build_s", start)
        start = clock()
        self.network = build_network(
            self.sim,
            self.topology,
            power_profile=scenario.power_profile,
            mac_config=scenario.mac_config,
            loss_model=build_loss_from_spec(scenario.loss, seed=seed),
            propagation=build_propagation_from_spec(scenario.propagation, seed=seed),
        )
        self._timed("net.network_build_s", start)
        start = clock()
        self.tree = build_routing_tree(
            self.topology,
            root=self.topology.center_node(),
            max_distance_from_root=scenario.max_distance_from_root,
        )
        self._timed("routing.tree_build_s", start)
        start = clock()
        self.deliveries = DeliveryLog()
        self.suite = build_protocol_suite(
            cell.protocol,
            self.sim,
            self.network,
            self.tree,
            on_root_delivery=self.deliveries,
            break_even_time=scenario.break_even_time,
        )
        self.suite.register_queries(cell.queries)
        layer = "baselines" if type(self.suite).__module__.startswith("repro.baselines") else "core"
        self._timed(f"{layer}.suite_build_s", start)
        #: ``sim.run`` as (start, end) on ``clock``, and its probe-free seconds.
        self.run_span = (0.0, 0.0)
        self.run_s = 0.0
        self.metrics: Optional[Dict[str, Any]] = None

    def _timed(self, name: str, start: float) -> None:
        end = clock()
        self.timings[name] = METER.raw(start, end)
        self.spans.append((name, start, end))

    def input_digest(self) -> str:
        """Digest of what the simulation is handed: placement, tree, queries."""
        return sha256_json(
            {
                "cell": self.cell.describe(),
                "positions": sorted(
                    (node, position.x, position.y) for node, position in self.topology.positions.items()
                ),
                "parents": sorted((node, self.tree.parent_of(node)) for node in self.tree.nodes),
            }
        )

    def run(self) -> None:
        start = clock()
        self.sim.run(until=self.cell.scenario.duration)
        self.run_span = (start, clock())
        self.run_s = METER.raw(*self.run_span)
        self.spans.append(("sim.run", *self.run_span))
        start = clock()
        scenario = self.cell.scenario
        self.network.finalize()
        metrics = collect_metrics(
            self.cell.protocol,
            self.network,
            self.tree,
            self.deliveries,
            self.cell.queries,
            scenario.duration,
            measure_from=scenario.measure_from,
            counters=collect_run_counters(
                self.sim, self.network, self.suite, wall_seconds=self.run_s
            ),
        )
        self._timed("experiments.collect_s", start)
        # Through JSON, so the dict matches what a result store holds.
        self.metrics = json.loads(json.dumps(metrics_to_dict(metrics)))

    def work_counts(self) -> Dict[str, float]:
        """Exact per-layer work counts, read from the layers' stats objects."""
        counters = collect_run_counters(self.sim, self.network)
        essat = [
            *getattr(self.suite, "nodes", {}).values(),
            *getattr(self.suite, "leaf_nodes", {}).values(),
        ]
        services = [
            *(node.service for node in essat),
            *getattr(self.suite, "services", {}).values(),
            *getattr(self.suite, "backbone_services", {}).values(),
        ]

        def total(objects, field: str) -> float:
            return float(sum(stats_as_mapping(obj.stats).get(field, 0.0) for obj in objects))

        return {
            "sim.events_processed": float(self.sim.processed_events),
            "sim.sim_seconds": float(self.sim.now),
            "sim.events_scheduled": float(self.sim.scheduled_events),
            "sim.events_cancelled": float(self.sim.cancelled_events),
            "sim.peak_heap": float(self.sim.peak_heap_size),
            "net.transmissions": counters.get("channel.transmissions", 0.0),
            "net.deliveries": counters.get("channel.deliveries", 0.0),
            "net.collisions": counters.get("channel.collisions", 0.0),
            "mac.frames_sent": counters.get("mac.frames_sent", 0.0),
            "mac.retransmissions": counters.get("mac.retransmissions", 0.0),
            "mac.backoffs": counters.get("mac.backoffs", 0.0),
            "query.reports_sent": total(services, "reports_sent"),
            "query.root_deliveries": total(services, "root_deliveries"),
            "core.shaper.reports_buffered": total(
                [node.shaper for node in essat], "reports_buffered"
            ),
            "core.safe_sleep.checks": total([node.safe_sleep for node in essat], "checks"),
            "core.safe_sleep.sleeps": total([node.safe_sleep for node in essat], "sleeps"),
        }

    def dispatch_profile(self) -> Dict[str, float]:
        """Per-layer and hot-callback dispatch totals of a traced run."""
        spans = self.sim.spans
        profile: Dict[str, float] = {"dispatch_s": 0.0}
        for layer in TRACED_LAYERS:
            profile[f"{layer}.events"] = 0.0
            profile[f"{layer}.self_s"] = 0.0
        for name in HOT_CALLBACKS:
            profile[f"{name}.events"] = 0.0
            profile[f"{name}.seconds"] = 0.0
        hot = {origin: name for name, origin in HOT_CALLBACKS.items()}
        for (module, qualname), (count, seconds) in zip(
            spans.callbacks, spans.per_callback(), strict=True
        ):
            profile["dispatch_s"] += seconds
            layer = layer_of(module)
            if layer in TRACED_LAYERS:
                profile[f"{layer}.events"] += count
                profile[f"{layer}.self_s"] += seconds
            name = hot.get((module, qualname))
            if name is not None:
                profile[f"{name}.events"] += count
                profile[f"{name}.seconds"] += seconds
        return profile

    def write_spans(self, directory: Path, parent: str) -> None:
        log = self.sim.spans
        for name, start, end in self.spans:
            log.boundary(name, start, end, parent)
        log.write(directory)


def measure_cell(cell: Cell, traced: bool) -> Tuple[Assembly, Dict[str, Any], float, float]:
    """Assemble and run one cell; the result's simulated part is exact.

    Also returns when the cell was ready to run and when it was done, on
    ``clock``.  ``raw_run_s`` is ``sim.run`` time, probes left out.
    """
    assembly = Assembly(cell, TracingSimulator if traced else Simulator)
    ready = clock()
    assembly.run()
    done = clock()
    assert assembly.metrics is not None
    result = {
        "input_digest": assembly.input_digest(),
        "metrics_digest": metrics_digest(assembly.metrics),
        "counts": assembly.work_counts(),
        "timings": assembly.timings,
        "raw_run_s": assembly.run_s,
    }
    if traced:
        result["profile"] = assembly.dispatch_profile()
    return assembly, result, ready, done


def import_s(request: Dict[str, Any]) -> float:
    return METER.raw(request["t0"], IMPORTED)


# -- the paper-scale simulation cells -----------------------------------------


def store_key(cell: Cell) -> str:
    return sha256_json({"benchmark_cell": cell.describe()})


def mode_setup(request: Dict[str, Any]) -> Dict[str, Any]:
    cell = Cell.for_workload(request["workload"], request["seed"])
    assembly = Assembly(cell)
    ready = clock()
    METER.stop()
    return {
        "import_s": import_s(request),
        "setup_s": METER.scaled(request["t0"], ready),
        "timings": assembly.timings,
        "input_digest": assembly.input_digest(),
        "peak_rss_mb": peak_rss_mb(),
    }


def mode_run(request: Dict[str, Any]) -> Dict[str, Any]:
    traced = bool(request.get("traced"))
    cell = Cell.for_workload(request["workload"], request["seed"])
    assembly, result, ready, done = measure_cell(cell, traced)
    METER.stop()
    result["import_s"] = import_s(request)
    result["setup_s"] = METER.scaled(request["t0"], ready)
    result["total_s"] = METER.scaled(request["t0"], done)
    result["run_s"] = METER.scaled(*assembly.run_span)
    out = Path(request["out"])
    if traced:
        assembly.write_spans(out / "trace", parent=request["workload"])
    else:
        # Persist the result the way a sweep would, for the warm replay.
        store = open_store(out / "store")
        store.put(
            store_key(cell),
            {"job": cell.describe(), "metrics": assembly.metrics, "extras": {}, "elapsed": assembly.run_s},
        )
        result["store_bytes"] = store.total_bytes
        result["jobs_stored"] = len(store)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def mode_replay(request: Dict[str, Any]) -> Dict[str, Any]:
    cell = Cell.for_workload(request["workload"], request["seed"])
    start = clock()
    store = open_store(Path(request["out"]) / "store")
    opened = clock()
    record = store.get(store_key(cell))
    digest = None
    if record is not None:
        metrics_from_dict(record["metrics"])
        digest = metrics_digest(record["metrics"])
    done = clock()
    METER.stop()
    return {
        "replay_s": METER.scaled(request["t0"], done),
        "store_open_s": METER.raw(start, opened),
        "cached": int(record is not None),
        "metrics_digest": digest,
        "peak_rss_mb": peak_rss_mb(),
    }


# -- the figure ------------------------------------------------------------------


class CountingProgress(NullProgress):
    """Counts sweep jobs run versus served from the store."""

    def __init__(self) -> None:
        self.executed = 0
        self.cached = 0

    def job_done(self, *, cached: bool, label: str = "") -> None:
        if cached:
            self.cached += 1
        else:
            self.executed += 1


def render_figure(request: Dict[str, Any]) -> Dict[str, Any]:
    """Open the store, regenerate Figure 3 into/from it, render the table."""
    start = clock()
    store = open_store(Path(request["out"]) / "store")
    dispatched = clock()
    progress = CountingProgress()
    orders = list(itertools.permutations(FIGURE_PROTOCOLS))
    protocols = orders[(request["seed"] - REFERENCE_SEED) % len(orders)]
    figure = figure3_duty_cycle_vs_rate(
        reduced_scale().with_overrides(seed=PINNED_INPUT_SEED),
        rates=FIGURE_RATES,
        protocols=protocols,
        num_runs=FIGURE_RUNS,
        jobs=FIGURE_WORKERS,
        store=store,
        progress=progress,
    )
    table = figure.to_table()
    done = clock()
    METER.stop()
    records = [store.get(digest) for digest in store.digests()]
    counters = [record["metrics"]["counters"] for record in records]
    # The pool's workers time their own runs, unprobed; scale them as the
    # sweep that ran them is scaled.
    sim_run_s = sum(counter["run.wall_seconds"] for counter in counters)
    sweep_factor = METER.scaled(dispatched, done) / METER.raw(dispatched, done)
    return {
        "import_s": import_s(request),
        "setup_s": METER.scaled(request["t0"], dispatched),
        "elapsed_s": METER.scaled(request["t0"], done),
        "store_open_s": METER.raw(start, dispatched),
        "table": table,
        "table_digest": hashlib.sha256(table.encode()).hexdigest(),
        "executed": progress.executed,
        "cached": progress.cached,
        "store_bytes": store.total_bytes,
        "sim_run_s": sim_run_s * sweep_factor,
        "sim_seconds": sum(counter["engine.sim_time"] for counter in counters),
        "cell_digests": sorted(metrics_digest(record["metrics"]) for record in records),
        "peak_rss_mb": peak_rss_mb(),
    }


def mode_fig_setup(request: Dict[str, Any]) -> Dict[str, Any]:
    open_store(Path(request["out"]) / "store")
    ready = clock()
    METER.stop()
    return {
        "import_s": import_s(request),
        "setup_s": METER.scaled(request["t0"], ready),
        "peak_rss_mb": peak_rss_mb(),
    }


def mode_fig_cells(request: Dict[str, Any]) -> Dict[str, Any]:
    """Re-run every job of the figure in this process, untraced then traced.

    Jobs come from the store the cold pass filled, so this is exactly the
    work the figure's pool did; every cell's simulated outcome must equal
    the stored one, untraced and traced alike.
    """
    store = open_store(Path(request["out"]) / "store")
    cells = []
    for digest in store.digests():
        record = store.get(digest)
        cell = Cell.for_job(RunJob.from_dict(record["job"]))
        _, plain, _, _ = measure_cell(cell, traced=False)
        assembly, traced, _, _ = measure_cell(cell, traced=True)
        assembly.write_spans(
            Path(request["out"]) / "trace" / f"cell{len(cells):02d}", parent=request["workload"]
        )
        cells.append({"stored_digest": metrics_digest(record["metrics"]), "plain": plain, "traced": traced})
    return {"cells": cells}


def main() -> int:
    request = json.loads(sys.argv[1])
    modes = {
        "setup": mode_setup,
        "run": mode_run,
        "replay": mode_replay,
        "fig_setup": mode_fig_setup,
        "fig_cold": render_figure,
        "fig_warm": render_figure,
        "fig_cells": mode_fig_cells,
        "imports": lambda _: {},
    }
    print(json.dumps(modes[request["mode"]](request)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

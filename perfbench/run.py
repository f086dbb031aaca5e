#!/usr/bin/env python3
"""The repo's benchmark: one closed-loop runner over the named workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper_queries_dts --seed 1 --seconds 30 --trace 0

The runner runs each measured step (``cell.py``) in a fresh interpreter and
waits for it to end before starting the next.  ``--trace 0`` prints the
end-to-end metrics, host times scaled to a reference host speed that the
steps probe as they run (``speed.py``); ``--trace 1`` adds a traced run
and prints the
per-layer metrics.  Every step's outputs are checked: against ``pins.json``
for the reference seed, and for any seed against each other (replay equals
run, warm equals cold, traced equals untraced, exact counts repeat, inputs
repeat).  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``README.md`` for what each
metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    FIGURE_PROTOCOLS,
    FIGURE_RATES,
    FIGURE_RUNS,
    FIGURE_WORKLOAD,
    HOT_CALLBACKS,
    METRIC_NAME,
    REFERENCE_SEED,
    TRACED_LAYERS,
    WORKLOADS,
)

#: Full passes take up to this share of ``--seconds`` (always at least
#: one).  Rounds of one set-up sample and ``REPLAYS_PER_SETUP`` warm replays
#: fill the rest, at least ``MIN_ROUNDS`` of them: the kinds alternate, so
#: a slow spell of the host lands on few of each.  Set-up also samples
#: every full pass.
PASS_SHARE = 0.75
MIN_ROUNDS = 4
REPLAYS_PER_SETUP = 1
#: Every step ends within this many seconds of the run's start; one still
#: running then has hung, and is killed and counted as failed.
RUN_LIMIT_S = 170.0
#: Scratch space inside the checkout (ignored by git).
OUT_ROOT = Path(".perfbench")

#: Modules whose import time the traced run reports.
IMPORT_PACKAGES = {
    "startup.import_scipy_s": "scipy",
    "startup.import_networkx_s": "networkx",
}

UNITS = {
    "wall_per_sim_s": "s/s",
    "total_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.events_per_sim_s": "1/s",
    "core.safe_sleep.sleep_ratio": "ratio",
    "orchestrator.store_bytes": "B",
    "trace.overhead_frac": "ratio",
}

EXACT_COUNTS = (
    "sim.events_scheduled",
    "sim.events_cancelled",
    "sim.peak_heap",
    "net.transmissions",
    "net.deliveries",
    "net.collisions",
    "mac.frames_sent",
    "mac.retransmissions",
    "mac.backoffs",
    "query.reports_sent",
    "query.root_deliveries",
    "core.shaper.reports_buffered",
    "core.safe_sleep.checks",
)

BUILD_CALLS = (
    "net.topology_build_s",
    "net.network_build_s",
    "routing.tree_build_s",
    "core.suite_build_s",
    "baselines.suite_build_s",
)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us") or name.endswith(".us_per_event"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


class StepFailed(Exception):
    """A measured step crashed, hung or printed no result."""


class Runner:
    """Runs one workload's steps, checks their outputs, derives metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_LIMIT_S
        self.out = OUT_ROOT / workload / f"seed{seed}"
        self.attempted = 0
        self.failures: List[str] = []
        self.pins = json.loads((HERE / "pins.json").read_text())[workload]
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        self.env = env

    # -- steps ---------------------------------------------------------------

    def step(self, mode: str, out: Path, flags=(), **extra: Any) -> Dict[str, Any]:
        """Run one ``cell.py`` step in a fresh interpreter and parse its result.

        Untraced steps that report end-to-end times probe the host's speed.
        """
        request = {"mode": mode, "workload": self.workload, "seed": self.seed, **extra, "out": str(out)}
        request["meter"] = mode not in ("fig_cells", "imports") and not extra.get("traced")
        request["t0"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *flags, str(HERE / "cell.py"), json.dumps(request)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{mode}: still running {RUN_LIMIT_S:.0f} s into the run") from None
        finally:
            if proc.poll() is None:
                # The step's whole session, a figure's pool workers included.
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        wall = time.perf_counter() - request["t0"]
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = " | ".join(stderr.strip().splitlines()[-3:])
            raise StepFailed(f"{mode}: exit {proc.returncode}: {tail}")
        result = json.loads(lines[-1])
        result["stderr"] = stderr
        result["wall"] = wall
        return result

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def full_passes(self, run_step) -> List[Dict[str, Any]]:
        """Run ``run_step`` at least once, and again while the next run is
        expected to end within ``PASS_SHARE`` of ``--seconds``."""
        results = [run_step(0)]
        while self.elapsed() + results[-1]["wall"] <= PASS_SHARE * self.seconds:
            results.append(run_step(len(results)))
        return results

    def alternate(self, setup, replay):
        """Set-up and warm-replay samples, taken in turn: at least
        ``MIN_ROUNDS`` rounds, then more while the next round is expected to
        end within ``--seconds``."""
        setups, replays = [], []
        while True:
            round_started = time.perf_counter()
            setups.append(setup(len(setups)))
            replays.extend(replay(len(setups)) for _ in range(REPLAYS_PER_SETUP))
            round_wall = time.perf_counter() - round_started
            if len(setups) >= MIN_ROUNDS and self.elapsed() + round_wall > self.seconds:
                return setups, replays

    def import_times(self) -> Dict[str, float]:
        """Import costs from ``-X importtime`` of the cells' own imports."""
        result = self.step("imports", self.out, flags=("-X", "importtime"))
        roots = parse_importtime(result["stderr"])
        metrics = {name: package_seconds(roots, package) for name, package in IMPORT_PACKAGES.items()}
        metrics["startup.import_repro_s"] = package_seconds(roots, "repro") - sum(metrics.values())
        return metrics

    # -- workloads -----------------------------------------------------------

    def measure(self) -> Dict[str, float]:
        # One workload's outputs at a time, so repeated runs don't fill the disk.
        shutil.rmtree(self.out.parent, ignore_errors=True)
        self.out.mkdir(parents=True)
        if self.workload == FIGURE_WORKLOAD:
            return self.measure_figure()
        return self.measure_sim()

    def measure_sim(self) -> Dict[str, float]:
        runs = self.full_passes(lambda index: self.step("run", self.out / f"run{index}"))
        setups, replays = self.alternate(
            lambda _: self.step("setup", self.out / "setup"),
            lambda _: self.step("replay", self.out / "run0"),
        )
        first = runs[0]
        duration = first["counts"]["sim.sim_seconds"]

        inputs ={step["input_digest"] for step in setups + runs}
        self.check(len(inputs) == 1, f"inputs differ between processes: {sorted(inputs)}")
        for run in runs[1:]:
            self.check(run["metrics_digest"] == first["metrics_digest"], "rerun outcome differs")
            self.check(run["counts"] == first["counts"], "rerun work counts differ")
        for replay in replays:
            self.check(
                replay["cached"] == 1 and replay["metrics_digest"] == first["metrics_digest"],
                "warm replay differs from the run",
            )
        self.check_pins(first["metrics_digest"], "metrics_digest", first["counts"]["sim.events_processed"])

        metrics = {
            "wall_per_sim_s": median(run["run_s"] / duration for run in runs),
            "total_s": median(run["total_s"] for run in runs),
            "replay_s": median(replay["replay_s"] for replay in replays),
            "setup_s": median(step["setup_s"] for step in setups + runs),
            "peak_rss_mb": max(step["peak_rss_mb"] for step in setups + runs + replays),
        }
        if not self.trace:
            return metrics

        traced = self.step("run", self.out / "traced", traced=True)
        self.check(traced["input_digest"] == first["input_digest"], "traced inputs differ")
        self.check(traced["metrics_digest"] == first["metrics_digest"], "traced outcome differs")
        self.check(traced["counts"] == first["counts"], "traced work counts differ")
        layers = work_metrics(first["counts"])
        for name in BUILD_CALLS:
            layers[name] = median(step["timings"].get(name, 0.0) for step in setups + runs)
        layers["experiments.collect_s"] = median(run["timings"]["experiments.collect_s"] for run in runs)
        layers["startup.import_s"] = median(step["import_s"] for step in setups + runs)
        layers["orchestrator.store_open_s"] = median(replay["store_open_s"] for replay in replays)
        layers["orchestrator.jobs_executed"] = float(first["jobs_stored"])
        layers["orchestrator.jobs_cached"] = float(replays[0]["cached"])
        layers["orchestrator.store_bytes"] = float(first["store_bytes"])
        layers.update(
            dispatch_metrics(
                [traced["profile"]],
                traced["raw_run_s"],
                traced["raw_run_s"] / median(run["raw_run_s"] for run in runs) - 1.0,
            )
        )
        layers.update(self.import_times())
        return layers

    def measure_figure(self) -> Dict[str, float]:
        colds = self.full_passes(lambda index: self.step("fig_cold", self.out / f"cold{index}"))
        cold = colds[0]
        setups, warms = self.alternate(
            lambda index: self.step("fig_setup", self.out / f"setup{index}"),
            lambda _: self.step("fig_warm", self.out / "cold0"),
        )
        jobs = len(FIGURE_PROTOCOLS) * len(FIGURE_RATES) * FIGURE_RUNS

        for run in colds:
            self.check(
                (run["executed"], run["cached"]) == (jobs, 0),
                f"cold pass ran {run['executed']} and reused {run['cached']} of {jobs} jobs",
            )
            self.check(run["table"] == cold["table"], "cold tables differ between runs")
        for warm in warms:
            self.check(
                (warm["executed"], warm["cached"]) == (0, jobs),
                f"warm pass ran {warm['executed']} and reused {warm['cached']} of {jobs} jobs",
            )
            self.check(warm["table"] == cold["table"], "warm table differs from the cold table")
        self.check_pins(cold["table_digest"], "table_digest", None)

        metrics = {
            "wall_per_sim_s": median(run["sim_run_s"] / run["sim_seconds"] for run in colds),
            "total_s": median(run["elapsed_s"] for run in colds),
            "replay_s": median(warm["elapsed_s"] for warm in warms),
            "setup_s": median(step["setup_s"] for step in setups + colds),
            "peak_rss_mb": max(step["peak_rss_mb"] for step in setups + colds + warms),
        }
        if not self.trace:
            return metrics

        cells = self.step("fig_cells", self.out / "cold0")["cells"]
        self.check(len(cells) == jobs, f"store holds {len(cells)} cells, expected {jobs}")
        self.check(
            sorted(cell["stored_digest"] for cell in cells) == cold["cell_digests"],
            "stored cells changed since the cold pass",
        )
        for cell in cells:
            plain, traced = cell["plain"], cell["traced"]
            self.check(plain["metrics_digest"] == cell["stored_digest"], "in-process cell differs from the pool's")
            self.check(traced["metrics_digest"] == cell["stored_digest"], "traced cell differs from the pool's")
            self.check(traced["counts"] == plain["counts"], "traced work counts differ")
        plain = [cell["plain"] for cell in cells]
        counts = {name: sum(cell["counts"][name] for cell in plain) for name in plain[0]["counts"]}
        counts["sim.peak_heap"] = max(cell["counts"]["sim.peak_heap"] for cell in plain)
        layers = work_metrics(counts)
        for name in (*BUILD_CALLS, "experiments.collect_s"):
            layers[name] = sum(cell["timings"].get(name, 0.0) for cell in plain)
        layers["startup.import_s"] = median(step["import_s"] for step in setups + colds)
        layers["orchestrator.store_open_s"] = median(warm["store_open_s"] for warm in warms)
        layers["orchestrator.jobs_executed"] = float(cold["executed"])
        layers["orchestrator.jobs_cached"] = float(warms[0]["cached"])
        layers["orchestrator.store_bytes"] = float(cold["store_bytes"])
        layers.update(
            dispatch_metrics(
                [cell["traced"]["profile"] for cell in cells],
                sum(cell["traced"]["raw_run_s"] for cell in cells),
                sum(cell["traced"]["raw_run_s"] for cell in cells)
                / sum(cell["plain"]["raw_run_s"] for cell in cells)
                - 1.0,
            )
        )
        layers.update(self.import_times())
        return layers

    def check_pins(self, digest: str, key: str, events: Optional[float]) -> None:
        """Outputs of the reference seed must match ``pins.json`` exactly."""
        if self.seed != REFERENCE_SEED:
            return
        self.check(digest == self.pins[key], f"{key} {digest} differs from the pinned {self.pins[key]}")
        if events is not None and events != self.pins["events"]:
            # Fired events are engine bookkeeping: an optimisation may
            # legitimately remove some, so a change is reported, not failed.
            print(f"note: {events:.0f} events fired, pinned {self.pins['events']}", file=sys.stderr)


def median(values) -> float:
    return statistics.median(list(values))


def work_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """Exact per-layer work counts, plus the two ratios derived from them."""
    metrics = {name: counts[name] for name in EXACT_COUNTS}
    metrics["sim.events_per_sim_s"] = counts["sim.events_processed"] / counts["sim.sim_seconds"]
    checks = counts["core.safe_sleep.checks"]
    metrics["core.safe_sleep.sleep_ratio"] = counts["core.safe_sleep.sleeps"] / checks if checks else 0.0
    return metrics


def dispatch_metrics(
    profiles: List[Dict[str, float]], traced_run_s: float, overhead_frac: float
) -> Dict[str, float]:
    """Per-layer dispatch time of traced runs that spent ``traced_run_s``
    (as measured) in ``sim.run``, and the tracing overhead."""
    total = {key: sum(profile[key] for profile in profiles) for key in profiles[0]}
    metrics: Dict[str, float] = {}
    for layer in TRACED_LAYERS:
        events, seconds = total[f"{layer}.events"], total[f"{layer}.self_s"]
        metrics[f"{layer}.events"] = events
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.us_per_event"] = 1e6 * seconds / events if events else 0.0
    for name in HOT_CALLBACKS:
        events = total[f"{name}.events"]
        metrics[name] = 1e6 * total[f"{name}.seconds"] / events if events else 0.0
    metrics["sim.self_s"] = traced_run_s - total["dispatch_s"]
    metrics["trace.overhead_frac"] = overhead_frac
    return metrics


def parse_importtime(stderr: str) -> List[Dict[str, Any]]:
    """The import tree from ``-X importtime`` output (children print first)."""
    pending: List[Dict[str, Any]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip())) // 2
        node = {"name": name.strip(), "cumulative_s": int(cumulative) / 1e6, "depth": depth, "children": []}
        while pending and pending[-1]["depth"] > depth:
            node["children"].insert(0, pending.pop())
        pending.append(node)
    return pending


def package_seconds(nodes: List[Dict[str, Any]], package: str) -> float:
    """Cumulative import time of the outermost imports of ``package``."""
    total = 0.0
    for node in nodes:
        if node["name"] == package or node["name"].startswith(package + "."):
            total += node["cumulative_s"]
        else:
            total += package_seconds(node["children"], package)
    return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)], check=False, capture_output=True
    )
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = runner.measure()
    except StepFailed as error:
        # A crashed or hung step fails the run; it is counted and reported
        # like any other failed check.
        runner.check(False, str(error))
        metrics = {}
    for name in metrics:
        runner.check(METRIC_NAME.fullmatch(name) is not None, f"bad metric name {name!r}")
    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:16.6f} {unit_of(name)}")
    print(f"{'failed_frac':36s} {failed / runner.attempted:16.6f} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

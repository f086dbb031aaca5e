"""Import hygiene: the entry points load no heavy third-party package.

The package runs on the standard library alone, and every CLI call, pool
worker and store replay pays its import cost.  This checks which modules an
import pulls in rather than how long it takes, so a new import of a heavy
package fails here deterministically instead of showing up as benchmark
drift.  The warm-replay path also leaves out the process pool and the
perf-history tooling, which it never uses, and the runner leaves out the
stack formatting only a tripped sanitizer wire needs.  The checks run in a subprocess
because the test session itself has already imported scipy, numpy and
networkx (they are test oracles).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages the simulator and its tooling must never import.
HEAVY_PACKAGES = ("scipy", "numpy", "networkx")

_PROGRAM = f"""
import json
import sys

import repro.cli
import repro.experiments.figures
import repro.orchestrator.api

print(json.dumps(sorted(name for name in {HEAVY_PACKAGES!r} if name in sys.modules)))
"""


#: Modules a warm figure replay has no use for: the process pool (loaded only
#: when a sweep has jobs to fan out) and the perf-history tooling.
REPLAY_UNUSED = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.obs.history",
    "repro.obs.report",
    "subprocess",
    "platform",
)

_REPLAY_PROGRAM = f"""
import json
import sys

import repro.experiments.figures
import repro.obs.adapters
import repro.orchestrator.api
import repro.orchestrator.store

print(json.dumps(sorted(name for name in {REPLAY_UNUSED!r} if name in sys.modules)))
"""

#: Modules only a tripped sanitizer wire needs (to format its stack); every
#: process that runs a simulation imports the runner and the sanitizer.
TRIPWIRE_ONLY = ("traceback", "textwrap")

_RUNNER_PROGRAM = f"""
import json
import sys

import repro.experiments.runner

print(json.dumps(sorted(name for name in {TRIPWIRE_ONLY!r} if name in sys.modules)))
"""

#: A two-job sweep on a two-worker pool, checked against the serial run.
_POOL_PROGRAM = """
import json
import sys

from repro.experiments.config import smoke_scale
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.executor import SweepExecutor
from repro.orchestrator.jobs import expand_experiment

jobs = expand_experiment(smoke_scale(), "DTS-SS", workload=rate_sweep_workload(2.0), num_runs=2)
serial = SweepExecutor(workers=1).run(jobs)
loaded_before = "concurrent.futures.process" in sys.modules
pooled = SweepExecutor(workers=2).run(jobs)
print(json.dumps({
    "loaded_before": loaded_before,
    "loaded_after": "concurrent.futures.process" in sys.modules,
    "same": [(a.metrics, a.extras) == (b.metrics, b.extras) for a, b in zip(serial, pooled)],
}))
"""


def _run(program: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_entry_points_import_no_heavy_packages() -> None:
    assert _run(_PROGRAM) == []


def test_replay_path_imports_no_pool_or_perf_history() -> None:
    assert _run(_REPLAY_PROGRAM) == []


def test_runner_imports_no_stack_formatting() -> None:
    assert _run(_RUNNER_PROGRAM) == []


def test_pool_sweep_still_runs_and_matches_serial() -> None:
    """The lazily imported pool is loaded by, and only by, a pooled sweep."""
    assert _run(_POOL_PROGRAM) == {
        "loaded_before": False,
        "loaded_after": True,
        "same": [True, True],
    }

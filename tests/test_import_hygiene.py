"""Import hygiene: the entry points load no heavy third-party package.

The package runs on the standard library alone, and every CLI call, pool
worker and store replay pays its import cost.  This checks which modules an
import pulls in rather than how long it takes, so a new import of a heavy
package fails here deterministically instead of showing up as benchmark
drift.  The warm-replay path, from building the CLI parser to printing a
cached figure, also leaves out the process pool and the perf-history
tooling, which it never uses.  Package ``__init__`` modules export nothing,
so importing a name loads only the module that defines it: a replay loads
no protocol, and a run loads only the protocol it builds.  The simulation
packages import no orchestration module, so nothing under the simulated
clock can reach wall-clock timing, the store or the CLI through an import,
and the runner imports no sweep module, even inside a function.
Nor does a simulation module bind a wall-clock function, a method of
``random``'s global instance or the environment as a global, even on a path
no tested run reaches.  The checks run in a subprocess because the test
session itself has already imported scipy, numpy and networkx (they are
test oracles).
"""

from __future__ import annotations

import ast
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

#: Protocol code a store replay never runs.
REPLAY_UNLOADED = ("repro.core", "repro.baselines", "repro.query.service")

_REPLAY_MODULES_PROGRAM = """
import json
import sys

import repro.experiments.figures
import repro.experiments.runner
import repro.orchestrator.jobs
import repro.orchestrator.store

print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def _cli_replay_program(cache_dir: Path) -> str:
    """Builds the CLI parser and prints Fig. 3 from ``cache_dir``'s store."""
    return f"""
import io
import json
import sys

from repro.cli import build_parser, main

build_parser()
main(["--scale", "smoke", "--cache-dir", {str(cache_dir)!r}, "figure", "fig3"], out=io.StringIO())
print(json.dumps(sorted(sys.modules)))
"""

def _suite_program(protocol: str, churn: bool = False) -> str:
    """Assembles a smoke-scale run of ``protocol``, with 30% of its nodes failing if ``churn``."""
    return f"""
import json
import sys

from repro.experiments.config import smoke_scale
from repro.experiments.runner import assemble_run
from repro.net.topology import FailureSchedule

scenario = smoke_scale()
if {churn!r}:
    scenario = scenario.with_overrides(
        failure_schedule=FailureSchedule(fraction=0.3, window=(3.0, 9.0))
    )
run = assemble_run(scenario, {protocol!r}, [], 1)
print(json.dumps([type(run.suite).__module__, sorted(sys.modules)]))
"""


def _within(modules, prefixes):
    """The modules that are, or sit under, one of ``prefixes``."""
    return [
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


#: The packages that run under the simulated clock.
SIMULATION_PACKAGES = ("sim", "net", "mac", "radio", "routing", "query", "core", "baselines")

#: What runs around the simulator: it may time things, read the environment
#: and write the store, so no simulation module may import any of it.
ORCHESTRATION_PACKAGES = (
    "orchestrator",
    "obs",
    "experiments",
    "cli",
)

_SIMULATION_PROGRAM = f"""
import importlib
import json
import pkgutil
import sys

for package in {SIMULATION_PACKAGES!r}:
    module = importlib.import_module("repro." + package)
    for info in pkgutil.walk_packages(module.__path__, module.__name__ + "."):
        importlib.import_module(info.name)
print(json.dumps(sorted(sys.modules)))
"""

#: Module globals no simulation module may hold: a name bound at import
#: (``from time import perf_counter``) to the wall clock, global randomness
#: or the environment.  ``tests/test_hidden_inputs.py`` catches such a read
#: only on the paths its runs execute; this covers every simulation module.
#: ``from random import Random`` stays legal: a seeded instance is
#: deterministic.
_BOUND_NAMES_PROGRAM = f"""
import importlib
import json
import os
import pkgutil
import random
import sys
import time

forbidden = {{}}
for name in ("time", "perf_counter", "monotonic", "process_time", "thread_time"):
    for suffix in ("", "_ns"):
        forbidden[id(getattr(time, name + suffix))] = "time." + name + suffix
forbidden[id(os.environ)] = "os.environ"
forbidden[id(os.getenv)] = "os.getenv"

for package in {SIMULATION_PACKAGES!r}:
    module = importlib.import_module("repro." + package)
    for info in pkgutil.walk_packages(module.__path__, module.__name__ + "."):
        importlib.import_module(info.name)

packages = ["repro." + package for package in {SIMULATION_PACKAGES!r}]
hits = []
for module_name, module in sorted(sys.modules.items()):
    if ".".join(module_name.split(".")[:2]) not in packages:
        continue
    for name, value in sorted(vars(module).items()):
        if id(value) in forbidden:
            hits.append(f"{{module_name}}.{{name}} is {{forbidden[id(value)]}}")
        elif getattr(value, "__self__", None) is random._inst:
            hits.append(f"{{module_name}}.{{name}} is random.{{value.__name__}}")
print(json.dumps(hits))
"""

#: The packages whose ``__init__`` holds only a docstring.
DOCSTRING_ONLY_PACKAGES = (
    "sim",
    "net",
    "radio",
    "mac",
    "routing",
    "query",
    "core",
    "baselines",
    "experiments",
    "orchestrator",
    "obs",
)

#: A two-job sweep on a two-worker pool, checked against the serial run.
_POOL_PROGRAM = """
import json
import sys

from repro.experiments.config import smoke_scale
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.api import ExperimentSpec, run_sweep

spec = ExperimentSpec(smoke_scale(), "DTS-SS", workload=rate_sweep_workload(2.0), num_runs=2)
(serial,) = run_sweep([spec], jobs=1)
loaded_before = "concurrent.futures.process" in sys.modules
(pooled,) = run_sweep([spec], jobs=2)
print(json.dumps({
    "loaded_before": loaded_before,
    "loaded_after": "concurrent.futures.process" in sys.modules,
    "same": [(a.metrics, a.extras) == (b.metrics, b.extras) for a, b in zip(serial.runs, pooled.runs)],
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


def test_replay_path_imports_no_pool_or_perf_history(tmp_path: Path) -> None:
    """Nor any protocol code: a warm replay runs no simulation."""
    program = _cli_replay_program(tmp_path)
    _run(program)  # cold: fills the store
    warm = _run(program)
    assert [name for name in REPLAY_UNUSED if name in warm] == []
    assert _within(warm, REPLAY_UNLOADED) == []


def test_pool_sweep_still_runs_and_matches_serial() -> None:
    """The lazily imported pool is loaded by, and only by, a pooled sweep."""
    assert _run(_POOL_PROGRAM) == {
        "loaded_before": False,
        "loaded_after": True,
        "same": [True, True],
    }


#: Deleted packages, which nothing may load or bring back.
DELETED_PACKAGES = ("sanitizer", "scenarios")


def test_replay_modules_load_no_protocol_or_sanitizer() -> None:
    """Importing the replay modules loads no protocol, and no deleted package exists."""
    modules = _run(_REPLAY_MODULES_PROGRAM)
    assert _within(modules, REPLAY_UNLOADED) == []
    for package in DELETED_PACKAGES:
        assert _within(modules, ("repro." + package,)) == []
        assert not (REPO_ROOT / "src" / "repro" / package).exists()


def test_suite_build_loads_only_its_protocol() -> None:
    suite, loaded = _run(_suite_program("DTS-SS"))
    assert suite == "repro.core.protocol"
    assert _within(loaded, ["repro.baselines"]) == []
    suite, loaded = _run(_suite_program("PSM"))
    assert suite == "repro.baselines.psm"
    assert _within(loaded, ["repro.core"]) == []
    # Node failures reach ESSAT maintenance only for an ESSAT suite.
    suite, loaded = _run(_suite_program("PSM", churn=True))
    assert suite == "repro.baselines.psm"
    assert _within(loaded, ["repro.core"]) == []


def test_package_inits_import_nothing() -> None:
    """Re-exports would load every submodule with the package."""
    found = []
    for package in DOCSTRING_ONLY_PACKAGES:
        path = REPO_ROOT / "src" / "repro" / package / "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                found.append(f"{package}/__init__.py:{node.lineno}")
    assert found == []


def test_simulation_packages_import_no_orchestration_module() -> None:
    loaded = _run(_SIMULATION_PROGRAM)
    assert "repro.core.protocol" in loaded and "repro.baselines.span" in loaded
    assert _within(loaded, ["repro." + name for name in ORCHESTRATION_PACKAGES]) == []


def _imported_modules(path: Path) -> set:
    """Every module an import statement in ``path`` names, at any depth."""
    package = path.relative_to(REPO_ROOT / "src").with_suffix("").parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            if node.module is None:
                names.update(".".join([*base, alias.name]) for alias in node.names)
            else:
                names.add(".".join([*base, node.module]))
    return names


def test_no_import_statement_reaches_above_its_layer() -> None:
    """Imports inside functions count: the import-time check cannot see them.

    Each simulation module stays below every orchestration package, and the
    runner, which wires one replication, stays below the sweep.
    """
    source = REPO_ROOT / "src" / "repro"
    above = {
        path: ["repro." + name for name in ORCHESTRATION_PACKAGES]
        for package in SIMULATION_PACKAGES
        for path in sorted((source / package).rglob("*.py"))
    }
    above[source / "experiments" / "runner.py"] = ["repro.orchestrator"]
    found = {
        str(path.relative_to(source)): _within(_imported_modules(path), forbidden)
        for path, forbidden in above.items()
    }
    assert {path: names for path, names in found.items() if names} == {}


def test_simulation_modules_bind_no_clock_randomness_or_environment() -> None:
    assert _run(_BOUND_NAMES_PROGRAM) == []

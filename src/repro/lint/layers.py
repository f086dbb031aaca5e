"""The layer map: which invariants apply to which part of the tree.

The determinism contract distinguishes two worlds:

* **Simulation layers** execute *inside* the simulated clock.  Their only
  notion of time is ``Simulator.now``, their only randomness the named
  streams of :mod:`repro.sim.rng`, and their iteration order must be
  reproducible because it feeds event scheduling, float accumulation and
  RNG draws.
* **Orchestration layers** run in wall-clock land around the simulator:
  they may time things (`perf_counter` for benchmarks, ETAs), read the
  environment, and use host-dependent facilities, because nothing they do
  feeds back into simulated behaviour.

Rules consult :func:`layer_of` so the allow-list is a single, reviewable
table instead of scattered per-rule special cases.  That simulation code
imports no orchestration module at all is checked at runtime, by
``tests/test_import_hygiene.py``.
"""

from __future__ import annotations

import enum
from pathlib import PurePosixPath
from typing import Union


class Layer(enum.Enum):
    """Which determinism regime a module lives under."""

    SIMULATION = "simulation"
    ORCHESTRATION = "orchestration"
    UNKNOWN = "unknown"


#: Top-level ``repro.*`` packages executing under the simulated clock.
SIMULATION_PACKAGES = frozenset(
    {
        "sim",
        "net",
        "mac",
        "radio",
        "routing",
        "query",
        "core",  # the ESSAT protocol layer (shapers, Safe Sleep, DTS/STS/NTS)
        "baselines",
        "scenarios",
    }
)

#: Packages (and top-level modules) that run in wall-clock land.
ORCHESTRATION_PACKAGES = frozenset(
    {
        "orchestrator",
        "obs",
        "experiments",
        "lint",
        "sanitizer",  # the runtime determinism tripwires (patches wall-clock)
        "cli",  # the top-level repro/cli.py module
    }
)

#: Modules whose classes sit on the per-event hot path.  REP004 (``__slots__``
#: required) and REP006 (guarded trace emission) apply only here: these are
#: the call sites the benchmarks showed run per simulated frame/transition,
#: where an instance ``__dict__`` or an unconditionally-built trace payload
#: is a measurable cost.  Paths are relative to the ``repro`` package root.
HOT_PATH_MODULES = frozenset(
    {
        "sim/engine.py",
        "sim/events.py",
        "net/channel.py",
        "radio/radio.py",
        "radio/duty_cycle.py",
        "radio/energy.py",
        "mac/base.py",
        "mac/csma.py",
        "mac/queue.py",
        "mac/stats.py",
        "core/shaper.py",
        "core/timing.py",
    }
)


def package_relative(path: Union[str, PurePosixPath]) -> str:
    """Normalize ``path`` to a posix path relative to the ``repro`` package.

    ``src/repro/sim/engine.py`` and ``/abs/.../repro/sim/engine.py`` both
    map to ``sim/engine.py``; paths outside a ``repro`` package root are
    returned unchanged (tests lint synthetic paths like ``fixture.py``).
    """
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1 :])
    return "/".join(parts)


def layer_of(path: Union[str, PurePosixPath]) -> Layer:
    """Classify a source file into the layer map.

    ``path`` may be absolute, repo-relative, or already package-relative.
    Unrecognized top-level packages classify as :attr:`Layer.UNKNOWN`, which
    no rule applies to -- new packages must be added to the map explicitly,
    so the contract never silently covers (or skips) code nobody reviewed.
    """
    relative = package_relative(path)
    if not relative:
        return Layer.UNKNOWN
    head = relative.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[: -len(".py")]
    if head in SIMULATION_PACKAGES:
        return Layer.SIMULATION
    if head in ORCHESTRATION_PACKAGES:
        return Layer.ORCHESTRATION
    return Layer.UNKNOWN


def is_hot_path(path: Union[str, PurePosixPath]) -> bool:
    """Whether ``path`` is one of the registered hot-path modules."""
    return package_relative(path) in HOT_PATH_MODULES

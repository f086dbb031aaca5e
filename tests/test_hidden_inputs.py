"""Hidden inputs: a running simulation reads no clock, global randomness or environment.

A (scenario, protocol, seed) cell must be a pure function of its inputs.
These tests run cells under ``sys.setprofile`` and record every call, made
while ``Simulator.run`` is on the stack, to a function that reads an input
the cell does not name:

* the ``time`` module's clocks and ``sleep``;
* ``os.urandom``;
* ``datetime.datetime.now``/``utcnow``/``today`` and ``datetime.date.today``;
* any method of ``random``'s global instance, which backs the module-level
  ``random.*`` functions (named streams are separate ``Random`` instances);
* ``os.environ`` reads: ``[]``, ``.get``, ``in`` and ``os.getenv`` all call
  ``type(os.environ).__getitem__``.

Calls are matched by the function called, not by the name it was called
through, so an alias bound by ``from time import perf_counter`` is caught
too.  Calls before and after ``run`` are not hits: orchestration may time a
run (``AssembledRun.execute`` does) and read its configuration.  Each
profiled run must also equal a plain run, metrics and extras.

``gc.callbacks`` are set aside while profiling: they run inside whatever
frame triggers a collection, and hypothesis installs one that reads
``time.perf_counter`` to time collections.
"""

from __future__ import annotations

import datetime
import gc
import os
import random
import sys
import time
import types
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

import repro
from repro.experiments.config import smoke_scale
from repro.experiments.runner import ALL_PROTOCOLS, assemble_run
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.loss import LossSpec
from repro.net.propagation import PropagationSpec
from repro.net.topology import FailureSchedule
from repro.query.workload import generate_queries
from repro.radio.energy import ZEBRANET
from repro.sim.engine import Simulator

_SRC = str(Path(repro.__file__).resolve().parent)
_RUN_CODE = Simulator.run.__code__
_ENVIRON_GETITEM_CODE = type(os.environ).__getitem__.__code__


def _c_candidates() -> Dict[Any, str]:
    """C functions that read a hidden input, keyed by the function object.

    A bound built-in method compares equal to, and hashes like, any other
    binding of the same method to the same object, so the bound methods
    built at each call site hit these keys.
    """
    found: Dict[Any, str] = {time.sleep: "time.sleep", os.urandom: "os.urandom"}
    for name in ("time", "monotonic", "perf_counter", "process_time", "thread_time"):
        for suffix in ("", "_ns"):
            found[getattr(time, name + suffix)] = f"time.{name}{suffix}"
    for cls, names in (
        (datetime.datetime, ("now", "utcnow", "today")),
        (datetime.date, ("today",)),
    ):
        for name in names:
            found[getattr(cls, name)] = f"datetime.{cls.__name__}.{name}"
    global_random = random.random.__self__
    for name in dir(global_random):
        method = getattr(global_random, name)
        if isinstance(method, types.BuiltinMethodType) and method.__self__ is global_random:
            found[method] = f"random.{name}"
    return found


_C_CANDIDATES = _c_candidates()


class Hit(NamedTuple):
    """One hidden-input read made while ``Simulator.run`` was on the stack."""

    call: str
    #: ``file:line in function``, innermost first, through ``Simulator.run``.
    stack: Tuple[str, ...]

    def __str__(self) -> str:
        site = next(frame for frame in self.stack if frame.startswith("src/repro/"))
        return f"{self.call} at {site}"


def _frame_label(frame: types.FrameType) -> str:
    filename = frame.f_code.co_filename
    if filename.startswith(_SRC):
        filename = "src/repro" + filename[len(_SRC) :]
    return f"{filename}:{frame.f_lineno} in {frame.f_code.co_name}"


def profiled(function: Callable[[], Any]) -> Tuple[Any, List[Hit]]:
    """Call ``function`` under the profiler; returns its result and the hits."""
    hits: List[Hit] = []

    def hook(frame: types.FrameType, event: str, arg: Any) -> None:
        if event == "c_call":
            call: Optional[str] = _C_CANDIDATES.get(arg)
        elif event == "call" and frame.f_code is _ENVIRON_GETITEM_CODE:
            call = "os.environ[...]"
        else:
            return
        if call is None:
            return
        stack = []
        current: Optional[types.FrameType] = frame
        while current is not None:
            stack.append(_frame_label(current))
            if current.f_code is _RUN_CODE:
                hits.append(Hit(call, tuple(stack)))
                return
            current = current.f_back

    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = function()
    finally:
        sys.setprofile(previous)
        gc.callbacks[:] = callbacks
    return result, hits


# -- planted reads in a hand-built simulator -------------------------------


def read_clock() -> float:
    return time.time()


def read_aliased_clock() -> float:
    return perf_counter()


def draw_global_random() -> float:
    return random.random()


def read_environment() -> Optional[str]:
    return os.environ.get("HOME")


def read_date() -> datetime.datetime:
    return datetime.datetime.now()


def read_urandom() -> bytes:
    return os.urandom(1)


PLANTS = [
    (read_clock, "time.time"),
    (read_aliased_clock, "time.perf_counter"),
    (draw_global_random, "random.random"),
    (read_environment, "os.environ[...]"),
    (read_date, "datetime.datetime.now"),
    (read_urandom, "os.urandom"),
]


@pytest.mark.parametrize(("plant", "call"), PLANTS, ids=[plant.__name__ for plant, _ in PLANTS])
def test_planted_read_is_a_hit(plant: Callable[[], Any], call: str) -> None:
    sim = Simulator(seed=1)
    sim.schedule_at(0.5, plant)
    _, hits = profiled(lambda: sim.run(until=1.0))
    assert [hit.call for hit in hits] == [call]
    assert any(frame.endswith(f" in {plant.__name__}") for frame in hits[0].stack)
    assert str(hits[0]).startswith(f"{call} at src/repro/sim/engine.py:")


def test_reads_around_run_are_not_hits() -> None:
    sim = Simulator(seed=1)
    sim.schedule_at(0.5, lambda: None)

    def orchestrate() -> None:
        read_clock()
        read_environment()
        sim.run()
        read_aliased_clock()
        read_environment()

    assert profiled(orchestrate)[1] == []


# -- whole runs --------------------------------------------------------------

#: Smoke-scale overrides that each add a model the smoke scenario lacks:
#: bursty loss, SINR capture, node failures, shadowing, a slow radio.
MODELS = {
    "bursty": {"loss": LossSpec.make("gilbert-elliott", loss_bad=0.8)},
    "capture": {"propagation": PropagationSpec.make("sinr", capture_db=10.0)},
    "churn": {"failure_schedule": FailureSchedule(fraction=0.3, window=(3.0, 9.0))},
    "shadowed": {"propagation": PropagationSpec.make("shadowing", sigma_db=6.0)},
    "radio-profiles": {"power_profile": ZEBRANET},
}

CELLS = [("smoke", protocol) for protocol in ALL_PROTOCOLS] + [
    (model, protocol) for model in MODELS for protocol in ("DTS-SS", "PSM")
]


@pytest.mark.parametrize(("model", "protocol"), CELLS, ids=[f"{m}-{p}" for m, p in CELLS])
def test_run_reads_no_hidden_input(model: str, protocol: str) -> None:
    scenario = smoke_scale().with_overrides(**MODELS.get(model, {}))
    queries = generate_queries(rate_sweep_workload(2.0), seed=1)
    plain = assemble_run(scenario, protocol, queries, 7).execute()
    result, hits = profiled(assemble_run(scenario, protocol, queries, 7).execute)
    assert sorted({str(hit) for hit in hits}) == []
    # RunMetrics equality leaves out the wall-clock counters.
    assert result == plain

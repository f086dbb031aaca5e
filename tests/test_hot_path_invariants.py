"""Hot-path invariants, checked on the running code.

* Every trace call site guards on ``trace.enabled``: ``emit`` takes its
  payload as ``**data``, so an unguarded call builds the payload even when
  recording is off.  Every protocol runs the smoke scenario, and the smoke
  scenario with 10%, 20% and 30% of its nodes failing, with a disabled
  recorder whose ``emit`` raises; the failures reach the cold failure and
  tree-repair sites.
* Classes in the hot-path modules hold no instance ``__dict__``: each
  allocates or is touched per simulated event, and ``__slots__`` also turns
  an attribute-name typo into an error.  Checking ``__dictoffset__`` on the
  imported class also catches a ``__dict__`` inherited from a base.
"""

from __future__ import annotations

import enum
import importlib

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.runner import ALL_PROTOCOLS, assemble_run
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.topology import FailureSchedule
from repro.query.workload import generate_queries
from repro.sim.trace import TraceRecorder

#: Modules whose classes sit on the per-event hot path.
HOT_PATH_MODULES = (
    "repro.sim.engine",
    "repro.sim.events",
    "repro.net.channel",
    "repro.radio.radio",
    "repro.radio.duty_cycle",
    "repro.radio.energy",
    "repro.mac.base",
    "repro.mac.csma",
    "repro.mac.queue",
    "repro.mac.stats",
    "repro.core.shaper",
    "repro.core.timing",
)


def test_every_emit_is_guarded(monkeypatch) -> None:
    emit = TraceRecorder.emit

    def strict_emit(self, time, category, node=None, **data):
        if not self.enabled:
            raise AssertionError(f"unguarded emit of {category!r} on a disabled recorder")
        emit(self, time, category, node, **data)

    monkeypatch.setattr(TraceRecorder, "emit", strict_emit)
    smoke = smoke_scale()
    scenarios = [smoke] + [
        smoke.with_overrides(failure_schedule=FailureSchedule(fraction=fraction, window=(3.0, 9.0)))
        for fraction in (0.1, 0.2, 0.3)
    ]
    queries = generate_queries(rate_sweep_workload(2.0), seed=smoke.seed)
    for scenario in scenarios:
        for protocol in ALL_PROTOCOLS:
            assemble_run(scenario, protocol, queries, smoke.seed).execute()


def _hot_path_classes():
    for name in HOT_PATH_MODULES:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and not issubclass(value, (enum.Enum, BaseException))
                and not getattr(value, "_is_protocol", False)
            ):
                yield value


@pytest.mark.parametrize("cls", list(_hot_path_classes()), ids=lambda cls: cls.__qualname__)
def test_hot_path_class_has_no_instance_dict(cls) -> None:
    assert cls.__dictoffset__ == 0, f"{cls.__module__}.{cls.__qualname__} has a __dict__"

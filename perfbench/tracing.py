"""Traced view of a simulation: every event dispatch timed from outside.

:class:`TracingSimulator` is a :class:`~repro.sim.engine.Simulator` whose
``schedule_at``/``schedule_in`` hand the engine a timing wrapper around each
callback.  The engine's own run loop, heap order and sequence numbers are
untouched, so the traced run simulates exactly what the untraced run does;
the benchmark asserts that its outputs are bit-identical.

Spans live in memory until the run ends: one ``(start, end)`` pair per
dispatch in a flat array per callback, whose parent is the ``sim.run``
span, plus the layer-boundary spans the cell records around its calls into
each layer.  :meth:`SpanLog.write` stores them after the run.
"""

from __future__ import annotations

import json
import math
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import PeriodicHandle, Simulator
from repro.sim.process import Timer


def callback_origin(callback: Any) -> Tuple[str, str]:
    """``(module, qualname)`` of the model code a scheduled callback runs.

    Engine helpers that only forward to another callback (periodic handles
    and timers) are looked through, so their dispatches count for the layer
    whose code they run.
    """
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, (PeriodicHandle, Timer)):
        return callback_origin(owner._callback)
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or type(callback).__module__
    qualname = getattr(func, "__qualname__", None) or type(callback).__qualname__
    return module, qualname


def layer_of(module: str) -> str:
    """The repo package a module belongs to (``repro.net.channel`` -> ``net``)."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else "other"


class SpanLog:
    """Dispatch spans per callback in flat arrays, plus boundary spans."""

    def __init__(self) -> None:
        self.callbacks: List[Tuple[str, str]] = []
        #: ``spans[i]`` holds start, end, start, end, ... of callback ``i``.
        self.spans: List[array] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self.boundaries: List[Dict[str, Any]] = []

    def spans_of(self, origin: Tuple[str, str]) -> array:
        index = self._ids.get(origin)
        if index is None:
            index = self._ids[origin] = len(self.callbacks)
            self.callbacks.append(origin)
            self.spans.append(array("d"))
        return self.spans[index]

    def boundary(self, name: str, start: float, end: float, parent: Optional[str]) -> None:
        self.boundaries.append(
            {"name": name, "layer": name.split(".")[0], "start": start, "end": end, "parent": parent}
        )

    def per_callback(self) -> List[Tuple[int, float]]:
        """``(dispatches, seconds)`` per callback, in :attr:`callbacks` order."""
        totals = []
        for spans in self.spans:
            starts, ends = spans[0::2], spans[1::2]
            totals.append((len(starts), math.fsum(ends) - math.fsum(starts)))
        return totals

    def write(self, directory: Path) -> None:
        """``spans.json`` (tables, boundary spans) + ``spans.bin`` (dispatch spans)."""
        directory.mkdir(parents=True, exist_ok=True)
        callbacks = []
        offset = 0
        with (directory / "spans.bin").open("wb") as handle:
            for (module, qualname), spans in zip(self.callbacks, self.spans, strict=True):
                spans.tofile(handle)
                callbacks.append(
                    {
                        "layer": layer_of(module),
                        "module": module,
                        "qualname": qualname,
                        "offset": offset,
                        "dispatches": len(spans) // 2,
                    }
                )
                offset += len(spans)
        header = {
            "layout": "spans.bin: per callback, float64 (start, end) pairs from offset",
            "dispatch_parent": "sim.run",
            "callbacks": callbacks,
            "boundaries": self.boundaries,
        }
        (directory / "spans.json").write_text(json.dumps(header, indent=1) + "\n")


class TracingSimulator(Simulator):
    """A simulator that records one span per event dispatch."""

    def __init__(self, seed: int = 0, trace: Any = None) -> None:
        super().__init__(seed=seed, trace=trace)
        self.spans = SpanLog()
        self._timed: Dict[Any, Callable[..., None]] = {}

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **options: Any):
        return Simulator.schedule_at(self, time, self._timed_callback(callback), *args, **options)

    def schedule_in(self, delay: float, callback: Callable[..., Any], *args: Any, **options: Any):
        return Simulator.schedule_in(self, delay, self._timed_callback(callback), *args, **options)

    def _timed_callback(self, callback: Callable[..., Any]) -> Callable[..., None]:
        # Bound methods compare equal by (instance, function), so every
        # re-arm of one model timer reuses its wrapper.
        timed = self._timed.get(callback)
        if timed is None:
            timed = self._timed[callback] = self._wrap(callback)
        return timed

    def _wrap(self, callback: Callable[..., Any]) -> Callable[..., None]:
        add = self.spans.spans_of(callback_origin(callback)).append
        clock = perf_counter

        def timed(*args: Any) -> None:
            start = clock()
            callback(*args)
            end = clock()
            add(start)
            add(end)

        return timed

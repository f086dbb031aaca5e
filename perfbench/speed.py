"""Host-speed probes, so that measured host time reads alike on a busy host.

On a shared host the same code runs up to 2x slower for a fraction of a
second to minutes at a time, while neighbours contend for the cores' caches
and memory.  The process's CPU time slows as much as its wall time, so
neither clock alone hides it.  A probe runs a fixed pure-Python loop (heap,
dict and bound-method work, like the simulator's) and reads the CPU time it
took, which tracks the host's speed at that moment.

A :class:`SpeedMeter` probes once when started and then every
``PROBE_INTERVAL_S`` of wall time, from a ``SIGALRM`` handler, so probes
land inside imports, set-up and ``sim.run`` alike without the measured code
knowing.  An interval's time is then integrated over the probe timeline:
the time outside the probes (:meth:`SpeedMeter.raw`), each stretch between
two probes scaled by ``REFERENCE_PROBE_S`` over the mean of the two
(:meth:`SpeedMeter.scaled`).  So a scaled interval reads host seconds at
the reference speed.  Imports only the standard library, so a step can
start probing before it imports the program.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
from time import perf_counter, process_time
from typing import Iterator, List, Tuple

#: The probe's CPU time on a quiet 2-CPU host, where scaled times read as
#: plain host seconds.
REFERENCE_PROBE_S = 0.0055
PROBE_EVENTS = 8000
#: Wall seconds between two probes while a meter runs.
PROBE_INTERVAL_S = 0.1

#: One probe: (start, end) on ``perf_counter``, and the CPU seconds it took.
Mark = Tuple[float, float, float]


class _Node:
    __slots__ = ("count", "last", "table")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0.0
        self.table: dict = {}

    def fire(self, time: float, key: int) -> None:
        self.count += 1
        self.last = time
        self.table[key & 255] = time


def _loop() -> int:
    nodes = [_Node() for _ in range(64)]
    heap: list = []
    x = 0.123456
    for index in range(PROBE_EVENTS):
        x = (x * 3.9) % 1.0
        heapq.heappush(heap, (x + index, index, nodes[index & 63].fire))
        if len(heap) > 200:
            time, key, fire = heapq.heappop(heap)
            fire(time, key)
    return sum(node.count for node in nodes)


def probe() -> Mark:
    """Time one run of the probe loop, with the collector off so that the
    probed process's own garbage is not collected on the probe's clock."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start, cpu = perf_counter(), process_time()
        _loop()
        return start, perf_counter(), process_time() - cpu
    finally:
        if collecting:
            gc.enable()


class SpeedMeter:
    """A process's probes, in time order."""

    def __init__(self) -> None:
        self.marks: List[Mark] = []
        self.running = False
        self._probing = False

    def probe(self, *_: object) -> None:
        """Take a probe now (also the ``SIGALRM`` handler)."""
        if self._probing:
            return
        self._probing = True
        try:
            self.marks.append(probe())
        finally:
            self._probing = False

    def start(self) -> None:
        """Probe now, then every ``PROBE_INTERVAL_S`` until :meth:`stop`."""
        self.running = True
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and take a last probe, so every interval measured
        so far has a probe after it.  Does nothing unless running."""
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def _stretches(self, start: float, end: float) -> Iterator[Tuple[float, float]]:
        """``(seconds, probe cpu s)`` for each stretch of ``[start, end]``
        outside the probes, with the mean CPU time of the probes around it
        (the nearest one before the first probe or after the last)."""
        marks = self.marks
        for index in range(-1, len(marks)):
            low = marks[index][1] if index >= 0 else -math.inf
            high = marks[index + 1][0] if index + 1 < len(marks) else math.inf
            seconds = min(high, end) - max(low, start)
            if seconds > 0.0:
                around = marks[max(index, 0) : index + 2]
                yield seconds, sum(mark[2] for mark in around) / len(around)

    def raw(self, start: float, end: float) -> float:
        """Host seconds from ``start`` to ``end``, probes left out."""
        if not self.marks:
            return end - start
        return sum(seconds for seconds, _ in self._stretches(start, end))

    def scaled(self, start: float, end: float) -> float:
        """Like :meth:`raw`, each stretch scaled to the reference speed
        (plain host seconds if the meter never probed)."""
        if not self.marks:
            return end - start
        return sum(seconds * REFERENCE_PROBE_S / cpu for seconds, cpu in self._stretches(start, end))

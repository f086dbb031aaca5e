"""The discrete-event simulation engine.

The paper evaluates ESSAT in ns-2; this module provides the equivalent
substrate: a deterministic, heap-based discrete-event simulator with

* ``schedule_at`` / ``schedule_in`` / ``defer`` / ``cancel`` primitives,
* a monotonically non-decreasing simulation clock,
* named pseudo-random streams (see :mod:`repro.sim.rng`) so that independent
  model components (MAC backoff, node placement, query start times) draw from
  independent, seed-stable streams,
* a structured trace facility (see :mod:`repro.sim.trace`).

The engine is intentionally simple and synchronous: callbacks run to
completion and may schedule further events.  All of the network, MAC, radio,
query-service and ESSAT protocol models are built on top of it.

Hot-path design
---------------
A heap entry is the event: ``schedule_at``/``schedule_in`` push one plain
list, ``[time, priority, sequence, callback, args]``, and hand that same
list back as the cancellation handle (:data:`~repro.sim.events.EventHandle`),
so scheduling allocates nothing else.  Sift comparisons stay C-level list
comparisons and never reach the callback slot, because sequence numbers are
unique.  Cancellation is *lazy*: :meth:`Simulator.cancel` clears the
callback slot and the entry stays queued until the run loop reaches it,
while a counter tracks how many cancelled entries the heap still holds.
The run loop clears the slot of every entry it fires, so a ``None`` callback
means "cancelled or fired" and cancelling a fired event is a no-op that
leaves the counter alone.  :attr:`pending_events` (live events only) is
therefore O(1) -- ``queued_events - cancelled entries`` -- while
:attr:`queued_events` is the raw queue length (heap plus deferral deque)
including cancelled entries not yet popped, i.e. queue memory pressure
rather than remaining work.

Events carry no label; an event is identified by its callback.

Zero-delay, low-priority work that runs once per model event (Safe Sleep's
deferred sleep decision) does not touch the heap at all: :meth:`Simulator.defer`
appends a ``[now, LOW, sequence, callback]`` list to an end-of-instant
deque.  (Deferred entries are lists too: the run loop compares them with
heap entries, and a tuple does not compare with a list.)  The run loop
fires the deque head whenever that entry sorts before the live heap top,
which is exactly where ``schedule_in(0.0, callback, priority=LOW)`` would
have fired it: after every HIGH and NORMAL event of the current instant and
every earlier-sequenced LOW one, before any later LOW event and before the
clock advances.  The deque is therefore always sorted and only ever holds
entries of the current instant.  Deferred callbacks take a sequence number
and count as scheduled, pending and processed events like heap events; they
return no handle and cannot be cancelled.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import EventHandle, EventPriority
from .rng import RandomStreams
from .trace import TraceRecorder

#: Hoisted: :meth:`Simulator.defer` runs once per Safe Sleep check.
_LOW = EventPriority.LOW


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named random streams.  Two simulators created
        with the same seed and the same model code execute identically, as
        long as no callback reads the wall clock, the global ``random``
        instance or the environment (``tests/test_hidden_inputs.py``
        profiles runs for such reads).
    trace:
        Optional :class:`TraceRecorder`; if omitted, a disabled recorder
        is used, so a run buffers no records.  Pass
        ``TraceRecorder()`` to record.
    """

    __slots__ = (
        "now",
        "_heap",
        "_deferred",
        "_sequence",
        "_running",
        "_stopped",
        "_processed_events",
        "_cancelled_in_heap",
        "_peak_heap_size",
        "streams",
        "trace",
    )

    def __init__(self, seed: int = 0, trace: Optional[TraceRecorder] = None) -> None:
        #: Current simulation time in seconds.  A plain attribute rather
        #: than a property: it is read on virtually every model callback,
        #: and the descriptor call was measurable.  Treat as read-only;
        #: only the run loop advances it.
        self.now: float = 0.0
        self._heap: list = []
        #: End-of-instant queue of ``[now, LOW, sequence, callback]`` entries
        #: (see :meth:`defer`).
        self._deferred: deque = deque()
        self._sequence: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._processed_events: int = 0
        #: Cancelled events still sitting in the heap (lazy deletion).
        self._cancelled_in_heap: int = 0
        #: Largest heap length observed by run() (memory high-water mark).
        self._peak_heap_size: int = 0
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of live events still queued (excluding cancelled ones),
        deferred callbacks included.

        O(1): the lazy-deletion counter tracks cancelled entries, so this no
        longer scans the heap.
        """
        return len(self._heap) - self._cancelled_in_heap + len(self._deferred)

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled or deferred, fired or not."""
        return self._sequence

    @property
    def cancelled_events(self) -> int:
        """Total events cancelled over the simulator's lifetime.

        Derived, not counted: every scheduled event is eventually either
        processed, still pending, or was cancelled, so the total is
        ``scheduled - processed - pending`` at zero hot-path cost.
        """
        return self._sequence - self._processed_events - self.pending_events

    @property
    def peak_heap_size(self) -> int:
        """Largest heap length :meth:`run` has observed (including cancelled
        entries awaiting lazy deletion) -- the queue's memory high-water mark.
        Sampled once per fired event, so spikes *within* one callback's
        scheduling burst are seen at the next event boundary."""
        return self._peak_heap_size

    @property
    def queued_events(self) -> int:
        """Number of queued entries (heap and deferred), including cancelled
        events not yet popped.

        Cancelled events stay in the heap until the run loop reaches them, so
        this count can exceed :attr:`pending_events`; it measures queue memory
        pressure rather than remaining work.
        """
        return len(self._heap) + len(self._deferred)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        Scheduling in the past raises :class:`SimulationError`; scheduling at
        exactly ``now`` is allowed and the event fires after the currently
        executing callback returns.  Callbacks take positional arguments
        only: a ``**kwargs`` pass-through would cost a dict allocation on
        every call of this extremely hot path (bind keywords with
        ``functools.partial`` in the rare case they are needed).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time:.9f} before now={self.now:.9f}"
            )
        self._sequence = sequence = self._sequence + 1
        entry = [time, priority, sequence, callback, args]
        heappush(self._heap, entry)
        return entry

    def schedule_in(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after a relative ``delay`` (>= 0 s).

        Fast path: a non-negative delay can never land in the past, so this
        skips :meth:`schedule_at`'s past-check and pushes directly.
        Positional callback arguments only (see :meth:`schedule_at`).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay!r}")
        time = self.now + delay
        self._sequence = sequence = self._sequence + 1
        entry = [time, priority, sequence, callback, args]
        heappush(self._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (a no-op once it fired or was cancelled).

        O(1): the entry stays in the heap with its callback slot cleared and
        is skipped when popped.  Only a still-pending event bumps the
        lazy-deletion counter, so ``pending_events`` stays exact without
        scanning the heap.
        """
        if handle[3] is not None:
            handle[3] = None
            self._cancelled_in_heap += 1

    def defer(self, callback: Callable[[], Any]) -> None:
        """Run ``callback()`` at the end of the current instant.

        Fires exactly where ``schedule_in(0.0, callback,
        priority=EventPriority.LOW)`` would -- after the HIGH and NORMAL
        events of this instant and every LOW event scheduled before it --
        but from a deque instead of the heap: no heap push or pop.  The
        deferral cannot be cancelled; callers that need coalescing keep
        their own pending flag (as Safe Sleep does).
        """
        self._sequence = sequence = self._sequence + 1
        self._deferred.append([self.now, _LOW, sequence, callback])

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would advance strictly past this time.  Events
            scheduled exactly at ``until`` are executed.  If omitted, run
            until the event queue drains.
        max_events:
            Safety valve: stop after this many events have fired in this call.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        fired_this_run = 0
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        pop = heappop
        deferred = self._deferred
        popleft = deferred.popleft
        # Peak tracking lives in a local (one len+compare per fired event);
        # sampled at event boundaries, where callback scheduling bursts from
        # the previous event are already in the heap.
        peak = self._peak_heap_size
        if len(heap) > peak:
            peak = len(heap)
        try:
            while True:
                if self._stopped:
                    break
                if deferred:
                    # Every deferred entry belongs to the current instant,
                    # so the clock stays put; the entry goes first unless a
                    # heap entry (live or cancelled) sorts before it.
                    head = deferred[0]
                    if not heap or head < heap[0]:
                        if head[0] > horizon:
                            break
                        popleft()
                        head[3]()
                        fired_this_run += 1
                        heap_len = len(heap)
                        if heap_len > peak:
                            peak = heap_len
                        if fired_this_run >= budget:
                            break
                        continue
                elif not heap:
                    break
                entry = heap[0]
                callback = entry[3]
                if callback is None:
                    pop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[0]
                if time > horizon:
                    break
                pop(heap)
                # A fired entry reads as no longer pending: cancelling it
                # from here on is a no-op.
                entry[3] = None
                if time < self.now:
                    raise SimulationError(
                        "event queue corrupted: event in the past "
                        f"({time:.9f} < {self.now:.9f})"
                    )
                self.now = time
                callback(*entry[4])
                fired_this_run += 1
                heap_len = len(heap)
                if heap_len > peak:
                    peak = heap_len
                if fired_this_run >= budget:
                    break
            if until is not None and not self._stopped and self.now < until:
                # Advance the clock to the requested horizon so that metrics
                # spanning [0, until] are well defined -- but only when no
                # live event remains at or before `until`.  If `max_events`
                # cut the run short, fast-forwarding past the still-pending
                # events would make the next run() see events in the past.
                next_time = self.peek_next_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._processed_events += fired_this_run
            self._peak_heap_size = peak
            self._running = False
        return self.now

    def stop(self) -> None:
        """Request that the current :meth:`run` stop after the current event."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if empty."""
        if self._deferred:
            return self.now
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3] is None:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            return entry[0]
        return None

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def call_every(
        self,
        period: float,
        callback: Callable[[], Any],
        *,
        start: Optional[float] = None,
        count: Optional[int] = None,
    ) -> "PeriodicHandle":
        """Schedule ``callback`` every ``period`` seconds.

        Returns a :class:`PeriodicHandle` that can cancel the recurrence.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        handle = PeriodicHandle(self, period, callback, count=count)
        first = self.now + period if start is None else start
        handle._arm(first)
        return handle


class PeriodicHandle:
    """Handle controlling a recurring callback created by :meth:`Simulator.call_every`."""

    __slots__ = (
        "_sim",
        "_period",
        "_callback",
        "_remaining",
        "_cancelled",
        "_current",
        "fired",
    )

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        count: Optional[int] = None,
    ) -> None:
        self._sim = sim
        self._period = period
        self._callback = callback
        self._remaining = count
        self._cancelled = False
        self._current: Optional[EventHandle] = None
        self.fired = 0

    def _arm(self, when: float) -> None:
        if self._cancelled:
            return
        self._current = self._sim.schedule_at(when, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self._callback()
        if self._remaining is not None:
            self._remaining -= 1
            if self._remaining <= 0:
                self._cancelled = True
                return
        self._arm(self._sim.now + self._period)

    def cancel(self) -> None:
        """Stop future firings; the currently scheduled one is cancelled too."""
        self._cancelled = True
        if self._current is not None:
            self._sim.cancel(self._current)

    @property
    def cancelled(self) -> bool:
        """Whether the recurrence has been cancelled or exhausted its count."""
        return self._cancelled

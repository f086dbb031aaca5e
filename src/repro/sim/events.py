"""Event primitives for the discrete-event simulation engine.

The engine schedules :class:`Event` objects on a priority queue keyed by
``(time, priority, sequence)``.  The sequence number guarantees a total,
deterministic ordering even when two events share the same timestamp and
priority, which is essential for reproducible simulations.

The heap itself stores ``(time, priority, sequence, event)`` tuples so that
sift comparisons stay entirely in C; :class:`Event` is a ``__slots__`` class
rather than a dataclass because one is allocated for every scheduled
callback, which makes its construction cost part of the simulator's
per-event budget.
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Tie-break priority for events scheduled at the same instant.

    Lower values run first.  The default for ordinary callbacks is
    :attr:`NORMAL`.  Radio/MAC bookkeeping that must observe a consistent
    world state (e.g. a radio completing a state transition before a packet
    delivery is attempted) uses :attr:`HIGH`, while end-of-simulation hooks
    use :attr:`LOW`.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


class Event:
    """A single scheduled callback.

    Events order by ``(time, priority, sequence)``; the callback and its
    positional arguments are excluded from comparison.

    The engine hands the scheduled :class:`Event` straight back to the
    caller as the cancellation handle; ``_sim``/``_in_heap`` let
    :meth:`cancel` keep the owning simulator's lazy-deletion counter exact
    without the engine re-scanning its heap.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "args",
        "cancelled",
        "_sim",
        "_in_heap",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple = (),
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self._sim = None
        self._in_heap = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.sequence) < (
            other.time,
            other.priority,
            other.sequence,
        )

    def cancel(self) -> None:
        """Mark the event as cancelled (idempotent).

        Cancelled events stay in the heap but are skipped when popped; this
        is O(1) and avoids an expensive heap removal.  The owning
        simulator's lazy-deletion counter is bumped so that
        ``pending_events`` stays exact without scanning the heap.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._in_heap and self._sim is not None:
                self._sim._cancelled_in_heap += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(t={self.time:.6f}, prio={self.priority}, seq={self.sequence}, "
            f"cb={name}, {state})"
        )


#: Backwards-compatible alias: the engine used to wrap every :class:`Event`
#: in a separate handle object, but the event itself now exposes the same
#: user-facing surface (``time``, ``cancelled``, ``cancel()``),
#: so scheduling no longer allocates a second object per event.
EventHandle = Event

"""Higher-level scheduling helpers built on the simulator core.

The :class:`Timer` wraps the common "schedule / reschedule / cancel a single
pending callback" pattern used throughout the MAC, query-service and ESSAT
protocol code (aggregation timeouts, wake-up timers, backoff timers, ...).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .engine import Simulator
from .events import EventHandle, EventPriority


class Timer:
    """A restartable one-shot timer.

    A timer owns at most one pending event.  Re-arming it cancels the
    previous event first, so callers never have to track stale handles.
    """

    __slots__ = ("_sim", "_callback", "_priority", "_handle", "fired_count")

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.NORMAL,
    ) -> None:
        self._sim = sim
        self._callback = callback
        self._priority = priority
        self._handle: Optional[EventHandle] = None
        self.fired_count = 0

    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> bool:
        """Whether the timer currently has an un-fired, un-cancelled event."""
        return self._handle is not None and self._handle[3] is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time of the pending expiry, or ``None`` if not armed."""
        if not self.pending:
            return None
        assert self._handle is not None
        return self._handle[0]

    # ------------------------------------------------------------------ #

    def start_at(self, time: float) -> None:
        """(Re-)arm the timer to fire at absolute time ``time``."""
        handle = self._handle
        if handle is not None:
            self._sim.cancel(handle)
        self._handle = self._sim.schedule_at(time, self._fire, priority=self._priority)

    def start_in(self, delay: float) -> None:
        """(Re-)arm the timer to fire ``delay`` seconds from now."""
        self.start_at(self._sim.now + delay)

    def cancel(self) -> None:
        """Cancel the pending expiry, if any (idempotent)."""
        if self._handle is not None:
            self._sim.cancel(self._handle)
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self.fired_count += 1
        self._callback()

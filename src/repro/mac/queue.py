"""Bounded FIFO transmit queue used by the MAC layer."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from ..net.packet import Packet


class TransmitQueue:
    """A bounded FIFO of frames awaiting transmission.

    Frames arriving when the queue is full are dropped and counted; sensor
    platforms have very limited packet buffers, so overflow behaviour is part
    of the model rather than an error.

    ``__slots__`` plus branch-based watermark updates: every frame a node
    forwards passes through :meth:`push`/:meth:`pop`, so the counters stay
    off the instance-dict path and the common case costs two deque calls.
    """

    __slots__ = ("capacity", "_queue", "enqueued", "dropped_overflow", "high_watermark")

    def __init__(self, capacity: int = 50) -> None:
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self._queue: Deque[Packet] = deque()
        self.enqueued = 0
        self.dropped_overflow = 0
        self.high_watermark = 0

    def push(self, packet: Packet) -> bool:
        """Append ``packet``; returns ``False`` (and counts a drop) when full."""
        queue = self._queue
        if len(queue) >= self.capacity:
            self.dropped_overflow += 1
            return False
        queue.append(packet)
        self.enqueued += 1
        depth = len(queue)
        if depth > self.high_watermark:
            self.high_watermark = depth
        return True

    def pop(self) -> Optional[Packet]:
        """Remove and return the head frame, or ``None`` when empty."""
        queue = self._queue
        if not queue:
            return None
        return queue.popleft()

    def peek(self) -> Optional[Packet]:
        """Return the head frame without removing it, or ``None`` when empty."""
        queue = self._queue
        if not queue:
            return None
        return queue[0]

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._queue)

    def clear(self) -> None:
        """Drop every queued frame."""
        self._queue.clear()

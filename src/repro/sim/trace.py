"""Structured trace recording for simulations.

Model components emit trace records (radio state changes, packet
transmissions, sleep decisions, phase shifts, ...) through a shared
:class:`TraceRecorder`.  Metrics code and tests consume the records, either
from the in-memory buffer or through a listener; the recorder can be
disabled entirely for large benchmark runs.

Emission must be *free* when recording is disabled.
:meth:`TraceRecorder.emit` takes its payload as ``**data`` keyword
arguments, so the caller allocates a dict (and evaluates the payload
expressions) before ``emit`` can early-out.  Every call site therefore
guards on the public :attr:`TraceRecorder.enabled` flag::

    trace = sim.trace
    if trace.enabled:
        trace.emit(now, "radio.state", node=..., old=..., new=...)

``emit`` still checks ``enabled`` itself.  ``tests/test_hot_path_invariants.py``
runs every protocol with a disabled recorder whose ``emit`` raises, so an
unguarded call site fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One trace record.

    Attributes
    ----------
    time:
        Simulation time at which the record was emitted.
    category:
        A dotted category string, e.g. ``"radio.state"`` or ``"mac.tx"``.
    node:
        Identifier of the emitting node, or ``None`` for global records.
    data:
        Arbitrary key/value payload.
    """

    time: float
    category: str
    node: Optional[int]
    data: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Collects :class:`TraceRecord` objects emitted by model components.

    ``enabled`` is the master switch; when ``False``, :meth:`emit` is a
    no-op.  Every emitted record is delivered to each listener, then
    appended to the buffer.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []
        self._listeners: Tuple[Callable[[TraceRecord], None], ...] = ()

    def emit(
        self, time: float, category: str, node: Optional[int] = None, **data: Any
    ) -> None:
        """Emit a record; a no-op when recording is disabled."""
        if not self.enabled:
            return
        record = TraceRecord(time=time, category=category, node=node, data=data)
        for listener in self._listeners:
            listener(record)
        self._records.append(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked synchronously for every emitted record.

        The listeners are a tuple (parity with ``TimingTable.subscribe``): an
        in-flight ``emit`` keeps notifying the tuple it started with.
        """
        self._listeners = (*self._listeners, listener)

    def unsubscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Remove a previously subscribed listener.

        Copy-on-write and idempotent: unknown listeners are ignored, and an
        in-flight notification completes against the old tuple.
        """
        self._listeners = tuple(
            existing for existing in self._listeners if existing != listener
        )

    @property
    def records(self) -> List[TraceRecord]:
        """All buffered records, in emission order."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(
        self, category: Optional[str] = None, node: Optional[int] = None
    ) -> List[TraceRecord]:
        """Return buffered records matching the given category and/or node."""
        result = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            result.append(record)
        return result

    def categories(self) -> Set[str]:
        """The set of categories observed in the buffer."""
        return {record.category for record in self._records}

    def clear(self) -> None:
        """Empty the buffer; listeners are unaffected."""
        self._records.clear()

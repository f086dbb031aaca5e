"""Event primitives for the discrete-event simulation engine.

The engine orders scheduled callbacks by ``(time, priority, sequence)``.  The
sequence number guarantees a total, deterministic ordering even when two
events share the same timestamp and priority, which is essential for
reproducible simulations.

A scheduled event is its heap entry: the plain list ``[time, priority,
sequence, callback, args]`` that :meth:`~repro.sim.engine.Simulator.schedule_at`
pushes and hands back as the cancellation handle (see
:data:`EventHandle`).
"""

from __future__ import annotations

import enum
from typing import Any, List


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


#: A scheduled event, as returned by ``schedule_at``/``schedule_in``: the
#: heap entry ``[time, priority, sequence, callback, args]`` itself.  The
#: callback slot (index 3) is ``None`` once the event is cancelled or has
#: fired; pass the handle to ``Simulator.cancel`` and read ``handle[0]``
#: for its time.
EventHandle = List[Any]

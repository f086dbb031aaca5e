"""Packet types exchanged in the simulated network.

The paper's workload consists of 52-byte data reports plus the control
traffic of the various protocols (query setup floods, MAC acknowledgements,
DTS phase-update requests, PSM ATIM announcements, SPAN coordinator
announcements).  Each packet type below carries only the fields the
protocols actually inspect; sizes are explicit so the MAC can compute
serialization delays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .addresses import BROADCAST

#: Default data-report payload size used by the paper (Section 5).
DEFAULT_DATA_REPORT_BYTES = 52

#: Size of a MAC-level acknowledgement frame.
ACK_BYTES = 14

#: Size of control packets (setup requests, phase updates, beacons).
CONTROL_BYTES = 20

_packet_ids = itertools.count(1)


def _next_packet_id() -> int:
    return next(_packet_ids)


def restart_packet_ids() -> None:
    """Number the next packet 1 again.

    Every run assembly calls this, so a run's packet ids (and the trace
    records that carry them) do not depend on how many packets earlier
    runs in the same process created.
    """
    global _packet_ids
    _packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """Base class for every frame put on the air.

    Attributes
    ----------
    src:
        Sender node id (link-layer source of this hop).
    dst:
        Receiver node id, or :data:`~repro.net.addresses.BROADCAST`.
    size_bytes:
        Frame size used to compute the serialization delay.
    created_at:
        Simulation time at which the packet object was created.
    packet_id:
        Globally unique identifier, useful for tracing and deduplication.
    """

    src: int
    dst: int
    size_bytes: int = DEFAULT_DATA_REPORT_BYTES
    created_at: float = 0.0
    packet_id: int = field(default_factory=_next_packet_id)

    @property
    def is_broadcast(self) -> bool:
        """Whether the packet is addressed to every neighbour."""
        return self.dst == BROADCAST


@dataclass(slots=True)
class DataReportPacket(Packet):
    """A (possibly aggregated) data report travelling up the routing tree.

    Attributes
    ----------
    query_id:
        Identifier of the query this report belongs to.
    report_index:
        The ``k`` of the k-th report of the query (0-based).
    origin:
        Node id of the deepest source contributing to the aggregate, used
        for latency bookkeeping.
    generated_at:
        Time the oldest contributing raw sample was generated; query latency
        is measured from this instant to delivery at the root.
    value:
        The aggregated application value.
    contributing_sources:
        Number of distinct sources whose samples are folded into this report.
    phase_update:
        Optional piggybacked DTS phase update: the sender's expected send
        time for its *next* report, advertised after a phase shift.
    sequence:
        Per-(sender, query) sequence number used for loss detection.
    """

    query_id: int = 0
    report_index: int = 0
    origin: int = 0
    generated_at: float = 0.0
    value: float = 0.0
    contributing_sources: int = 1
    phase_update: Optional[float] = None
    sequence: int = 0

    def describe(self) -> Dict[str, Any]:
        """Compact dict representation for traces and tests."""
        return {
            "query": self.query_id,
            "k": self.report_index,
            "src": self.src,
            "dst": self.dst,
            "origin": self.origin,
            "sources": self.contributing_sources,
            "phase_update": self.phase_update,
        }


@dataclass(slots=True)
class AckPacket(Packet):
    """MAC-level acknowledgement for a unicast frame."""

    acked_packet_id: int = 0
    #: Optional piggybacked request for a DTS phase update (Section 4.3).
    phase_request: bool = False

    def __post_init__(self) -> None:
        self.size_bytes = ACK_BYTES


@dataclass(slots=True)
class SetupPacket(Packet):
    """Flooded query/tree setup request.

    Carries the hop count (level) so receivers can pick the parent with the
    lowest level, and the query parameters being disseminated.
    """

    query_id: int = 0
    level: int = 0
    period: float = 1.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        self.size_bytes = CONTROL_BYTES


@dataclass(slots=True)
class PhaseRequestPacket(Packet):
    """Explicit request for a DTS phase update after detected packet loss."""

    query_id: int = 0

    def __post_init__(self) -> None:
        self.size_bytes = CONTROL_BYTES


@dataclass(slots=True)
class PhaseUpdatePacket(Packet):
    """Explicit DTS phase update (used when it cannot be piggybacked)."""

    query_id: int = 0
    next_send_time: float = 0.0

    def __post_init__(self) -> None:
        self.size_bytes = CONTROL_BYTES


@dataclass(slots=True)
class AtimPacket(Packet):
    """PSM ATIM (traffic announcement) frame sent during the ATIM window."""

    announced_packets: int = 1

    def __post_init__(self) -> None:
        self.size_bytes = CONTROL_BYTES


@dataclass(slots=True)
class CoordinatorAnnouncement(Packet):
    """SPAN coordinator announcement keeping the backbone connected."""

    is_coordinator: bool = True

    def __post_init__(self) -> None:
        self.size_bytes = CONTROL_BYTES
        self.dst = BROADCAST

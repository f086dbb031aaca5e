"""The MAC's configuration and the callback types it calls upward.

ESSAT is explicitly layered *between* the MAC protocol and the query service
(Section 4): it hands frames down to :class:`~repro.mac.csma.CsmaMac` and
receives frames and completion notifications back through the callbacks
registered with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..net.packet import Packet
from ..sim.units import mbps, us

#: Upper-layer callback invoked for every frame delivered to this node:
#: ``callback(packet)``.
ReceiveCallback = Callable[[Packet], None]

#: Upper-layer callback invoked when a send completes:
#: ``callback(packet, success)``.
SendDoneCallback = Callable[[Packet, bool], None]


@dataclass(frozen=True, slots=True)
class MacConfig:
    """Timing and behaviour parameters of the CSMA/CA MAC.

    Defaults approximate IEEE 802.11b at 1 Mbps, the configuration used in
    the paper's simulations.
    """

    bandwidth_bps: float = mbps(1)
    slot_time: float = us(20)
    sifs: float = us(10)
    difs: float = us(50)
    cw_min: int = 31
    cw_max: int = 1023
    max_retries: int = 5
    use_acks: bool = True
    queue_capacity: int = 50
    #: Extra PHY/MAC header bytes added to every frame on the air.
    header_bytes: int = 0
    #: Additional slack allowed when waiting for an acknowledgement.
    ack_timeout_slack_slots: int = 4

    def frame_airtime(self, size_bytes: int) -> float:
        """Serialization time of a frame of ``size_bytes`` payload bytes."""
        total_bytes = size_bytes + self.header_bytes
        return (total_bytes * 8) / self.bandwidth_bps


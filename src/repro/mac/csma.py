"""CSMA/CA MAC protocol.

A simplified but behaviourally faithful CSMA/CA MAC in the spirit of IEEE
802.11 DCF / the TinyOS CSMA MAC, providing exactly the properties ESSAT's
design reacts to:

* carrier sense before transmitting, with DIFS deference,
* random slotted backoff with a contention window that doubles on failed
  attempts -- the source of the one-hop delay jitter that accumulates over
  multiple hops (Section 1 of the paper),
* optional link-layer acknowledgements with bounded retransmission for
  unicast frames,
* cooperation with the radio power manager: when the radio is asleep the MAC
  holds its queue and resumes on wake-up.

The MAC never decides to power the radio down; that is the power manager's
job (Safe Sleep or one of the baselines).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Set, Tuple

from ..net.addresses import BROADCAST
from ..net.channel import WirelessChannel
from ..net.packet import AckPacket, Packet
from ..radio.radio import Radio
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..radio.states import RadioState
from .base import MacConfig, ReceiveCallback, SendDoneCallback
from .queue import TransmitQueue
from .stats import MacStats

#: Hot-path constants: identity checks against module globals skip the
#: enum attribute walk on every transmit attempt.
_OFF = RadioState.OFF
_TURNING_OFF = RadioState.TURNING_OFF
_TURNING_ON = RadioState.TURNING_ON
_IDLE = RadioState.IDLE


class _MacState(enum.Enum):
    """Internal transmit-path state of the CSMA MAC."""

    IDLE = "idle"
    WAITING_FOR_RADIO = "waiting_for_radio"
    DEFERRING = "deferring"
    TRANSMITTING = "transmitting"
    WAITING_FOR_ACK = "waiting_for_ack"


@dataclass(slots=True)
class _Outgoing:
    """State of the frame currently being worked on."""

    packet: Packet
    enqueued_at: float
    attempts: int = 0
    cw: int = 0


class CsmaMac:
    """CSMA/CA MAC instance for one node."""

    __slots__ = (
        "_sim",
        "node_id",
        "_radio",
        "_channel",
        "_audible",
        "config",
        "_rng",
        "_randbelow",
        "_queue",
        "_current",
        "_state",
        "_receive_callback",
        "_send_done_callback",
        "stats",
        "_seen_packet_ids",
        "_seen_packet_order",
        "_pending_acks",
        "_attempt_handle",
        "_ack_handle",
        "_slot_time",
        "_cw_min",
        "_cw_max",
        "_difs",
        "_use_acks",
        "_on_attempt_timer_cb",
        "_on_ack_timeout_cb",
        "_on_tx_complete_cb",
        "_transmit_ack_cb",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        radio: Radio,
        channel: WirelessChannel,
        config: Optional[MacConfig] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self._sim = sim
        self.node_id = node_id
        self._radio = radio
        self._channel = channel
        self.config = config if config is not None else MacConfig()
        rng_source = streams if streams is not None else sim.streams
        self._rng = rng_source.get(f"mac.backoff.{node_id}")
        # ``randint(0, w)`` resolves to ``_randbelow(w + 1)`` inside
        # ``random.Random``; calling it directly skips two wrapper frames per
        # backoff draw while consuming the identical RNG state.
        self._randbelow = self._rng._randbelow
        self._queue = TransmitQueue(self.config.queue_capacity)
        self._current: Optional[_Outgoing] = None
        self._state = _MacState.IDLE
        self._receive_callback: Optional[ReceiveCallback] = None
        self._send_done_callback: Optional[SendDoneCallback] = None
        self.stats = MacStats()
        # Receiver-side duplicate suppression: a retransmission caused by a
        # lost ACK must not be delivered to the upper layer twice.
        self._seen_packet_ids: Set[Tuple[int, int]] = set()
        self._seen_packet_order: Deque[Tuple[int, int]] = deque(maxlen=256)
        # Acknowledgements scheduled (after SIFS) but not yet put on the air.
        # Counted in has_pending so the power manager does not turn the radio
        # off between a reception and its acknowledgement.
        self._pending_acks = 0

        # Attempt/ACK timers are raw engine events (the handle doubles as the
        # cancellation token): re-arming through a Timer wrapper cost an
        # extra call frame per backoff on the busiest path in the MAC.
        self._attempt_handle = None
        self._ack_handle = None
        # Precomputed so the per-frame hot path does not chase config
        # attributes or re-bind callback methods.
        self._slot_time = self.config.slot_time
        self._cw_min = self.config.cw_min
        self._cw_max = self.config.cw_max
        self._difs = self.config.difs
        self._use_acks = self.config.use_acks
        self._on_attempt_timer_cb = self._on_attempt_timer
        self._on_ack_timeout_cb = self._on_ack_timeout
        self._on_tx_complete_cb = self._on_tx_complete
        self._transmit_ack_cb = self._transmit_ack

        channel.register(node_id, radio, self._on_phy_receive)
        #: The channel's persistent list of frames audible here (its
        #: carrier-sense index entry): non-empty means the medium is busy.
        self._audible = channel.audible_at(node_id)
        radio.on_wake(self._on_radio_wake)

    # ------------------------------------------------------------------ #
    # Upper-layer interface
    # ------------------------------------------------------------------ #

    def set_receive_callback(self, callback: ReceiveCallback) -> None:
        self._receive_callback = callback

    def set_send_done_callback(self, callback: SendDoneCallback) -> None:
        self._send_done_callback = callback

    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission."""
        accepted = self._queue.push(packet)
        if not accepted:
            self.stats.queue_drops += 1
            self._notify_send_done(packet, False)
            return False
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                self._sim.now,
                "mac.enqueue",
                node=self.node_id,
                packet_id=packet.packet_id,
                dst=packet.dst,
                queue_len=len(self._queue),
            )
        self._maybe_start_next()
        return True

    @property
    def has_pending(self) -> bool:
        """Whether a frame is queued or in flight, or an ACK is due to go out."""
        # Reads the queue's deque directly: this property gates every Safe
        # Sleep decision, and the len(TransmitQueue) indirection showed up.
        return (
            self._current is not None
            or len(self._queue._queue) > 0
            or self._pending_acks > 0
        )

    @property
    def pending_count(self) -> int:
        """Frames queued or in flight, plus ACKs due to go out."""
        return len(self._queue) + (1 if self._current is not None else 0) + self._pending_acks

    @property
    def queue(self) -> TransmitQueue:
        """The transmit queue (exposed for tests and metrics)."""
        return self._queue

    # ------------------------------------------------------------------ #
    # transmit path
    # ------------------------------------------------------------------ #

    def _maybe_start_next(self) -> None:
        if self._current is not None or self._state is not _MacState.IDLE:
            return
        packet = self._queue.pop()
        if packet is None:
            return
        self._current = _Outgoing(packet=packet, enqueued_at=self._sim.now, cw=self._cw_min)
        self._start_attempt()

    def _start_attempt(self) -> None:
        assert self._current is not None
        # One read of the radio's state instead of the is_awake/can_transmit
        # descriptor pair: this runs for every transmit attempt.
        radio_state = self._radio._state
        if radio_state is _OFF or radio_state is _TURNING_OFF or radio_state is _TURNING_ON:
            # The power manager has the radio off; resume when it wakes up.
            self._state = _MacState.WAITING_FOR_RADIO
            return
        audible = self._audible
        if radio_state is _IDLE and not audible:
            # Medium currently idle: wait DIFS plus a small initial backoff,
            # then re-check and transmit.
            backoff = self._draw_backoff(initial=True)
            self._defer(self._difs + backoff)
            return
        # The radio is busy receiving or transmitting (retry shortly after
        # the channel clears), or the medium is busy (defer until it clears,
        # plus DIFS plus a random backoff).  Inlined
        # WirelessChannel.time_until_idle: the latest end audible here.
        now = self._sim.now
        latest = now
        for transmission in audible:
            if transmission.end > latest:
                latest = transmission.end
        if radio_state is not _IDLE:
            self._defer(latest - now + self._difs)
            return
        self.stats.deferrals += 1
        backoff = self._draw_backoff()
        self._defer(latest - now + self._difs + backoff)

    def _defer(self, delay: float) -> None:
        self._state = _MacState.DEFERRING
        slot_time = self._slot_time
        handle = self._attempt_handle
        if handle is not None:
            self._sim.cancel(handle)
        self._attempt_handle = self._sim.schedule_in(
            delay if delay > slot_time else slot_time, self._on_attempt_timer_cb
        )

    def _draw_backoff(self, initial: bool = False) -> float:
        assert self._current is not None
        self.stats.backoffs += 1
        window = self._current.cw
        cw_max = self._cw_max
        if window > cw_max:
            window = cw_max
        if initial and window > self._cw_min:
            window = self._cw_min
        slots = self._randbelow(window + 1)
        return slots * self._slot_time

    def _on_attempt_timer(self) -> None:
        self._attempt_handle = None
        if self._current is None:
            self._state = _MacState.IDLE
            self._maybe_start_next()
            return
        radio_state = self._radio._state
        if radio_state is _OFF or radio_state is _TURNING_OFF or radio_state is _TURNING_ON:
            self._state = _MacState.WAITING_FOR_RADIO
            return
        audible = self._audible
        if radio_state is not _IDLE or audible:
            # Still busy: double the contention window and retry after the
            # latest end audible here (inlined time_until_idle).
            self._current.cw = min(self._current.cw * 2 + 1, self._cw_max)
            self.stats.deferrals += 1
            now = self._sim.now
            latest = now
            for transmission in audible:
                if transmission.end > latest:
                    latest = transmission.end
            self._defer(latest - now + self._difs + self._draw_backoff())
            return
        self._transmit_current()

    def _transmit_current(self) -> None:
        assert self._current is not None
        packet = self._current.packet
        self._current.attempts += 1
        airtime = self.config.frame_airtime(packet.size_bytes)
        self._state = _MacState.TRANSMITTING
        self._channel.transmit(self.node_id, packet, airtime)
        trace = self._sim.trace
        if trace.enabled:
            trace.emit(
                self._sim.now,
                "mac.tx",
                node=self.node_id,
                packet_id=packet.packet_id,
                dst=packet.dst,
                attempt=self._current.attempts,
            )
        self._sim.schedule_in(airtime, self._on_tx_complete_cb)

    def _on_tx_complete(self) -> None:
        if self._current is None:
            self._state = _MacState.IDLE
            self._maybe_start_next()
            return
        packet = self._current.packet
        self.stats.bytes_sent += packet.size_bytes
        # ``packet.dst == BROADCAST`` inlines the is_broadcast property.
        if packet.dst == BROADCAST or not self._use_acks:
            self.stats.frames_sent += 1
            if packet.dst == BROADCAST:
                self.stats.broadcasts_sent += 1
            self._complete_current(success=True)
            return
        # Unicast with acknowledgements: wait for the ACK.
        self._state = _MacState.WAITING_FOR_ACK
        ack_airtime = self.config.frame_airtime(AckPacket(src=0, dst=0).size_bytes)
        timeout = (
            self.config.sifs
            + ack_airtime
            + self.config.ack_timeout_slack_slots * self.config.slot_time
        )
        handle = self._ack_handle
        if handle is not None:
            self._sim.cancel(handle)
        self._ack_handle = self._sim.schedule_in(timeout, self._on_ack_timeout_cb)

    def _on_ack_timeout(self) -> None:
        self._ack_handle = None
        if self._current is None or self._state is not _MacState.WAITING_FOR_ACK:
            return
        self._retry_or_fail()

    def _retry_or_fail(self) -> None:
        assert self._current is not None
        if self._current.attempts > self.config.max_retries:
            self.stats.send_failures += 1
            self._complete_current(success=False)
            return
        self.stats.retransmissions += 1
        self._current.cw = min(self._current.cw * 2 + 1, self._cw_max)
        self._defer(self.config.difs + self._draw_backoff())

    def _complete_current(self, success: bool) -> None:
        assert self._current is not None
        outgoing = self._current
        self._current = None
        self._state = _MacState.IDLE
        handle = self._ack_handle
        if handle is not None:
            self._sim.cancel(handle)
            self._ack_handle = None
        if success:
            self.stats.record_access_delay(self._sim.now - outgoing.enqueued_at)
        self._notify_send_done(outgoing.packet, success)
        self._maybe_start_next()

    def _notify_send_done(self, packet: Packet, success: bool) -> None:
        if self._send_done_callback is not None:
            self._send_done_callback(packet, success)

    # ------------------------------------------------------------------ #
    # receive path
    # ------------------------------------------------------------------ #

    def _on_phy_receive(self, packet: Packet, rx_start: float) -> None:
        # ``type(...) is`` rather than isinstance: AckPacket is a leaf type,
        # and this runs once per delivered frame at every receiver.
        if type(packet) is AckPacket:
            # Every neighbour overhears an ACK; only its addressee looks.
            if packet.dst == self.node_id:
                self._handle_ack(packet)
            return
        dst = packet.dst
        if dst == BROADCAST:
            self.stats.frames_received += 1
            self._deliver(packet)
            return
        if dst != self.node_id:
            # Overheard unicast frame destined elsewhere; ignore.
            return
        if self._use_acks:
            self._send_ack(packet)
        if self._is_duplicate(packet):
            return
        self.stats.frames_received += 1
        self._deliver(packet)

    def _handle_ack(self, ack: AckPacket) -> None:
        if (
            self._current is None
            or self._state is not _MacState.WAITING_FOR_ACK
            or ack.acked_packet_id != self._current.packet.packet_id
        ):
            return
        self.stats.acks_received += 1
        handle = self._ack_handle
        if handle is not None:
            self._sim.cancel(handle)
            self._ack_handle = None
        self.stats.frames_sent += 1
        self._complete_current(success=True)

    def _send_ack(self, packet: Packet) -> None:
        ack = AckPacket(
            src=self.node_id,
            dst=packet.src,
            acked_packet_id=packet.packet_id,
            created_at=self._sim.now,
        )
        self._pending_acks += 1
        self._sim.schedule_in(self.config.sifs, self._transmit_ack_cb, ack)

    def _transmit_ack(self, ack: AckPacket) -> None:
        self._pending_acks = max(0, self._pending_acks - 1)
        if not self._radio.can_transmit:
            # The radio is busy (e.g. another frame arrived); skip the ACK and
            # let the sender retransmit.
            return
        airtime = self.config.frame_airtime(ack.size_bytes)
        self._channel.transmit(self.node_id, ack, airtime)
        self.stats.acks_sent += 1
        self.stats.control_bytes_sent += ack.size_bytes

    def _is_duplicate(self, packet: Packet) -> bool:
        key = (packet.src, packet.packet_id)
        if key in self._seen_packet_ids:
            return True
        if len(self._seen_packet_order) == self._seen_packet_order.maxlen:
            oldest = self._seen_packet_order[0]
            self._seen_packet_ids.discard(oldest)
        self._seen_packet_order.append(key)
        self._seen_packet_ids.add(key)
        return False

    def _deliver(self, packet: Packet) -> None:
        if self._receive_callback is not None:
            self._receive_callback(packet)

    # ------------------------------------------------------------------ #
    # power-manager cooperation
    # ------------------------------------------------------------------ #

    def _on_radio_wake(self) -> None:
        if self._state is _MacState.WAITING_FOR_RADIO and self._current is not None:
            self._start_attempt()
        else:
            self._maybe_start_next()

"""The shared wireless broadcast medium.

The channel implements the physical-layer behaviour that ESSAT's design
depends on:

* **broadcast within a disk** -- every awake, idle neighbour of the sender
  locks onto a starting transmission,
* **collisions** -- if a frame starts while a receiver is already locked onto
  another frame, the first frame is corrupted at that receiver and the new
  frame is not received either; this is what creates the contention-induced
  delay jitter that accumulates over hops (Section 1),
* **sleeping receivers miss frames** -- a frame addressed to a node whose
  radio is off is simply lost at that node (the sender's MAC learns about it
  through a missing acknowledgement),
* **carrier sense** -- the MAC's CSMA behaviour reads the frames audible
  at its node (:meth:`WirelessChannel.audible_at`).

Propagation delay over <= 125 m is below a microsecond and is ignored (a
standard simplification that does not affect the protocol comparison).
Under the default unit-disk model capture is ignored too, as the paper
does; the ``sinr`` propagation strategy below opts into SINR-based capture.

Hot-path design
---------------
Carrier sense used to iterate every in-flight transmission and call the
topology's ``in_range`` (a Euclidean distance) per poll.  The channel now
maintains a per-node *active-transmission index* (``_covering``): when a
frame starts, it is appended to the index entry of the sender and of every
in-range node (snapshotted on the transmission as ``covered``), and removed
when it ends.  The entries are persistent lists, so the MAC binds its own
once (:meth:`WirelessChannel.audible_at`): carrier sense is an emptiness
test and the time until idle a max over the handful of frames audible at
one node, both without a call.  ``is_busy`` and ``time_until_idle`` answer
the same questions by node id.

A lock writes no duty-cycle state.  Every frame puts each idle neighbour
into RX; the loops set the radio's ``_state`` to RX and its ``_rx_since``
to now (emitting the ``radio.state`` record when tracing), and the radio
accounts the whole reception -- the IDLE stretch before it and the RX
stretch itself -- once, when it leaves RX or is finalized.

A frame's start is one pass over a cached per-sender *fan-out table*
(``_fanout``): sender -> ``(covered ids, covering lists, attached
(id, radio) pairs)``.  The covered ids are ``(sender,) + neighbours``; the
covering lists are the persistent ``_covering`` entries in that order; the
attached pairs keep neighbour order, so the ``receivers`` dict and the
delivery order are those of the topology's neighbour sets.  The unit-disk
loop appends the frame to every cached list, then walks only the attached
radios, and the transmission points at the shared cached tuples (they are
never mutated; ``unregister`` only rebinds a frame's references to ``()``),
so no per-frame list or tuple is built.  The placement is static, so the
covered ids and lists never go stale; the table is flushed only on
``register``/``unregister``, which change the attached pairs.

Propagation strategies
----------------------
Reception physics are delegated to a :mod:`repro.net.propagation` model.
The default :class:`~repro.net.propagation.UnitDiskPropagation` keeps the
original inlined loop (guarded by ``self._unit_disk``, mirroring the
``_lossless`` fast flag), so the paper's channel is bit-for-bit unchanged
and pays nothing for the indirection.  Non-default models
(log-distance shadowing, SINR capture) run the model-aware loop: it reads
its neighbours from the same fan-out table, filters the audible set per
link budget and resolves collisions per SINR over this same per-node
transmission index.  Under the unit-disk model that loop is the reference
the fast loop is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.events import EventPriority
from ..radio.radio import Radio
from ..radio.states import RadioState
from .loss import LossModel, NoLoss
from .packet import Packet
from .propagation import CAPTURE_NEW, KEEP_LOCKED, UnitDiskPropagation
from .topology import Topology

#: Signature of the callback a MAC registers to receive frames:
#: ``callback(packet, rx_start_time)``.
DeliveryCallback = Callable[[Packet, float], None]

#: Hot-loop constants (module-level loads beat enum attribute walks).
_IDLE = RadioState.IDLE
_OFF = RadioState.OFF
_RX = RadioState.RX


@dataclass(slots=True, eq=False)
class Transmission:
    """Book-keeping for one frame currently on the air.

    Compared by identity: each instance is one frame on the air, and the
    covering lists' ``remove``/``in`` then never fall back to a field-wise
    comparison.
    """

    sender: int
    packet: Packet
    start: float
    end: float
    #: receiver node id -> frame still intact at that receiver
    receivers: Dict[int, bool] = field(default_factory=dict)
    #: Node ids whose carrier-sense index holds this transmission (the
    #: sender plus its in-range nodes at start-of-frame).
    covered: Tuple[int, ...] = ()
    #: The covering lists themselves, in ``covered`` order: the frame's end
    #: removes itself from each without re-resolving the per-node dict.
    covered_lists: Tuple[list, ...] = ()


#: One fan-out table entry: ``(covered ids, covering lists, attached
#: (id, radio) pairs)`` of a sender (see :meth:`WirelessChannel._fanout`).
Fanout = Tuple[Tuple[int, ...], Tuple[List[Transmission], ...], Tuple[Tuple[int, Radio], ...]]


class ChannelStats:
    """Aggregate channel statistics for a simulation run."""

    __slots__ = (
        "transmissions",
        "deliveries",
        "collisions",
        "missed_asleep",
        "dropped_by_loss_model",
        "dropped_from_failed_sender",
        "bytes_transmitted",
    )

    def __init__(self) -> None:
        self.transmissions = 0
        self.deliveries = 0
        self.collisions = 0
        self.missed_asleep = 0
        self.dropped_by_loss_model = 0
        self.dropped_from_failed_sender = 0
        self.bytes_transmitted = 0

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return {
            "transmissions": self.transmissions,
            "deliveries": self.deliveries,
            "collisions": self.collisions,
            "missed_asleep": self.missed_asleep,
            "dropped_by_loss_model": self.dropped_by_loss_model,
            "dropped_from_failed_sender": self.dropped_from_failed_sender,
            "bytes_transmitted": self.bytes_transmitted,
        }


class WirelessChannel:
    """Shared broadcast medium connecting all node radios."""

    __slots__ = (
        "_sim",
        "_topology",
        "_loss_model",
        "_lossless",
        "_model",
        "_unit_disk",
        "_attached",
        "_active",
        "_covering",
        "_draining",
        "_fanout_cache",
        "_finish_transmission_cb",
        "_end_drain_cb",
        "stats",
    )

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        loss_model: Optional[LossModel] = None,
        propagation=None,
    ) -> None:
        self._sim = sim
        self._topology = topology
        self._loss_model: LossModel = loss_model if loss_model is not None else NoLoss()
        #: True when the loss model is the no-op default; lets the delivery
        #: loop skip a per-receiver call (NoLoss draws no randomness, so the
        #: skip is observationally identical).
        self._lossless = isinstance(self._loss_model, NoLoss)
        #: The propagation/reception strategy (see :mod:`repro.net.propagation`).
        self._model = propagation if propagation is not None else UnitDiskPropagation()
        self._model.bind(topology)
        #: True for the default model; ``transmit`` then runs the original
        #: inlined unit-disk loop (bit-for-bit the pre-strategy channel).
        self._unit_disk = bool(self._model.is_unit_disk)
        #: node id -> ``(radio, delivery_callback)``; one dict so the
        #: per-receiver hot loops resolve both with a single lookup.
        self._attached: Dict[int, Tuple[Radio, DeliveryCallback]] = {}
        #: sender id -> its in-flight transmission
        self._active: Dict[int, Transmission] = {}
        #: node id -> transmissions currently audible at that node (the
        #: carrier-sense index maintained by ``transmit``/``_finish_transmission``).
        #: Pre-seeded for every topology node so the transmit loop can index
        #: directly; entries persist across unregistration (a dead node's
        #: in-range senders still append here, harmlessly).
        self._covering: Dict[int, List[Transmission]] = {
            node_id: [] for node_id in topology.node_ids
        }
        #: receiver id -> the scheduled end of its post-collision RX drain
        #: (the radio stays busy until every frame that overlapped its
        #: corrupted reception has ended; see ``_finish_transmission``).
        self._draining: Dict[int, object] = {}
        #: sender id -> its fan-out table entry (see :meth:`_fanout`);
        #: flushed on every ``register``/``unregister``.
        self._fanout_cache: Dict[int, Fanout] = {}
        #: Pre-bound end-of-frame and end-of-drain callbacks (one
        #: bound-method allocation per scheduled event otherwise).
        self._finish_transmission_cb = self._finish_transmission
        self._end_drain_cb = self._end_drain
        self.stats = ChannelStats()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    @property
    def topology(self) -> Topology:
        """The static topology used for connectivity decisions."""
        return self._topology

    @property
    def propagation(self):
        """The propagation/reception model frames are evaluated under."""
        return self._model

    def register(self, node_id: int, radio: Radio, deliver: DeliveryCallback) -> None:
        """Attach a node's radio and MAC delivery callback to the channel."""
        if node_id in self._attached:
            raise ValueError(f"node {node_id} is already registered on the channel")
        self._attached[node_id] = (radio, deliver)
        self._covering.setdefault(node_id, [])
        # Every cached fan-out whose neighbours include this node is stale.
        self._fanout_cache.clear()

    def unregister(self, node_id: int) -> None:
        """Detach a node (permanent failure); in-flight frames to it are lost.

        Closes out the failed node's reception state and scrubs it from the
        receiver maps of every in-flight transmission: a dead node can
        neither stay locked onto a frame nor keep accumulating RX time, and
        leaving phantom receiver entries behind would mis-attribute energy
        right at the failure instant (churn scenarios hit this constantly).
        """
        attached = self._attached.pop(node_id, None)
        radio = attached[0] if attached is not None else None
        locked_tx = radio._rx_lock if radio is not None else None
        if radio is not None:
            radio._rx_lock = None
        drain = self._draining.pop(node_id, None)
        if drain is not None:
            self._sim.cancel(drain)
        if radio is not None and (locked_tx is not None or drain is not None):
            # End RX accounting at the failure instant instead of leaving the
            # dead radio in RX until the end of the run.
            radio.abort_rx()
        for transmission in self._active.values():
            transmission.receivers.pop(node_id, None)
        own = self._active.pop(node_id, None)
        if own is not None:
            # The dead node cannot keep energy on the air: drop its frame
            # from the carrier-sense index immediately, close its TX
            # accounting at the failure instant (mirroring the RX case
            # above), and corrupt the half-transmitted frame at every
            # receiver -- a truncated frame cannot be decoded, so letting
            # the scheduled finish deliver it intact would inflate delivery
            # ratios in the very churn runs this fix targets.
            if radio is not None and radio.state is RadioState.TX:
                radio.end_tx()
            covering = self._covering
            for node in own.covered:
                entries = covering.get(node)
                if entries is not None and own in entries:
                    entries.remove(own)
            own.covered = ()
            own.covered_lists = ()
            for receiver in own.receivers:
                own.receivers[receiver] = False
        # The dead node is gone from every cached attached-pairs tuple.
        self._fanout_cache.clear()

    # ------------------------------------------------------------------ #
    # carrier sense
    # ------------------------------------------------------------------ #

    def audible_at(self, node_id: int) -> List[Transmission]:
        """The frames on the air audible at ``node_id``: its carrier-sense
        index entry itself, not a copy.

        The list is persistent (frames are appended and removed in place,
        never rebound), so a MAC binds it once and tests it for emptiness
        on every attempt.  Callers must not mutate it.
        """
        return self._covering[node_id]

    def is_busy(self, node_id: int) -> bool:
        """Carrier sense at ``node_id``: is any in-range node transmitting?"""
        covering = self._covering.get(node_id)
        return bool(covering)

    def time_until_idle(self, node_id: int) -> float:
        """Time until every in-range transmission has ended (0 if idle now)."""
        covering = self._covering.get(node_id)
        if not covering:
            return 0.0
        now = self._sim.now
        latest = now
        for transmission in covering:
            if transmission.end > latest:
                latest = transmission.end
        return latest - now

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #

    def _fanout(self, sender: int) -> Fanout:
        """Cached fan-out table entry of ``sender``.

        ``(covered ids, covering lists, attached (id, radio) pairs)``: the
        covered ids are ``(sender,) + neighbours`` in the topology's
        iteration order, the covering lists are the ``_covering`` entries of
        those ids, and the attached pairs are the registered neighbours with
        their radios, in neighbour order.
        """
        entry = self._fanout_cache.get(sender)
        if entry is None:
            covered = (sender,) + tuple(self._topology.neighbors(sender))
            covering = self._covering
            attached = self._attached
            entry = self._fanout_cache[sender] = (
                covered,
                tuple(covering[node] for node in covered),
                tuple((node, attached[node][0]) for node in covered[1:] if node in attached),
            )
        return entry

    def transmit(self, sender: int, packet: Packet, duration: float) -> Optional[Transmission]:
        """Put ``packet`` on the air from ``sender`` for ``duration`` seconds.

        The sender's radio must be idle; the MAC is responsible for carrier
        sense and backoff before calling this.  A transmission from a node
        that has been unregistered (it failed mid-operation) is silently
        discarded -- a dead node cannot put energy on the air.
        """
        attached = self._attached
        sender_attached = attached.get(sender)
        if sender_attached is None:
            self.stats.dropped_from_failed_sender += 1
            return None
        radio = sender_attached[0]
        if duration <= 0:
            raise ValueError(f"transmission duration must be positive, got {duration!r}")
        radio.start_tx()
        sim = self._sim
        now = sim.now
        stats = self.stats
        trace = sim.trace
        tracing = trace.enabled
        transmission = Transmission(sender, packet, now, now + duration)
        self._active[sender] = transmission
        stats.transmissions += 1
        stats.bytes_transmitted += packet.size_bytes
        if tracing:
            trace.emit(
                now,
                "channel.tx_start",
                node=sender,
                packet_id=packet.packet_id,
                dst=packet.dst,
                size=packet.size_bytes,
            )

        covered, covered_lists, neighbor_radios = self._fanout(sender)
        receivers = transmission.receivers
        collisions = 0
        missed_asleep = 0
        idle = _IDLE
        off = _OFF
        rx = _RX
        if self._unit_disk:
            # The carrier-sense index hears the energy at the sender and at
            # every neighbour, whatever the neighbour's radio (or
            # registration) state.
            for entries in covered_lists:
                entries.append(transmission)
            for neighbor, neighbor_radio in neighbor_radios:
                locked_tx = neighbor_radio._rx_lock
                if locked_tx is not None:
                    # The neighbour is already receiving another frame: that frame
                    # is corrupted and this one is not receivable there either.
                    locked_tx.receivers[neighbor] = False
                    collisions += 1
                    if tracing:
                        trace.emit(
                            now, "channel.collision", node=neighbor, packet_id=packet.packet_id
                        )
                    continue
                # Inlined Radio.can_receive / Radio.is_asleep: this loop runs for
                # every in-range node of every frame on the air.
                state = neighbor_radio._state
                if state is not idle:
                    # Asleep, transitioning, or itself transmitting.
                    if state is off:
                        missed_asleep += 1
                    continue
                # The IDLE check above is exactly Radio.start_rx's precondition,
                # so enter RX without re-validating.  The lock writes no
                # tracker state: the radio accounts the reception once, when
                # it leaves RX (see Radio._rx_since).
                neighbor_radio._state = rx
                neighbor_radio._rx_since = now
                if tracing:
                    trace.emit(now, "radio.state", node=neighbor, old=idle.value, new=rx.value)
                receivers[neighbor] = True
                neighbor_radio._rx_lock = transmission
            transmission.covered = covered
            transmission.covered_lists = covered_lists
        else:
            # Model-aware loop: the audible set is the link-budget-filtered
            # subset of the disk neighbours (a frame below sensitivity is
            # neither receivable nor carrier-sensed nor interference), and a
            # locked receiver asks the model to resolve the collision over
            # the frames audible there (the per-node transmission index).
            model = self._model
            covering = self._covering
            sender_list = covering[sender]
            sender_list.append(transmission)
            audible_lists = [sender_list]
            neighbors = model.audible(sender, covered[1:])
            for neighbor in neighbors:
                audible_here = covering[neighbor]
                audible_here.append(transmission)
                audible_lists.append(audible_here)

                neighbor_attached = attached.get(neighbor)
                if neighbor_attached is None:
                    continue
                neighbor_radio = neighbor_attached[0]
                locked_tx = neighbor_radio._rx_lock
                if locked_tx is not None:
                    outcome = model.resolve_collision(
                        neighbor, locked_tx, transmission, audible_here
                    )
                    if outcome is KEEP_LOCKED:
                        # The locked frame captured: the new frame is simply
                        # not receivable here (no corruption, no state change).
                        continue
                    locked_tx.receivers[neighbor] = False
                    collisions += 1
                    if tracing:
                        trace.emit(
                            now, "channel.collision", node=neighbor, packet_id=packet.packet_id
                        )
                    if outcome is CAPTURE_NEW:
                        # The new frame captured the receiver mid-collision:
                        # the radio (already in RX) re-locks onto it.
                        receivers[neighbor] = True
                        neighbor_radio._rx_lock = transmission
                    continue
                state = neighbor_radio._state
                if state is not idle:
                    if state is off:
                        missed_asleep += 1
                    continue
                if not model.can_lock(neighbor, transmission, audible_here):
                    # Drowned by frames already on the air: the idle
                    # receiver never acquires the frame (it stays idle; the
                    # frame still interferes via the covering index).
                    continue
                # Lazy reception accounting, as in the unit-disk loop.
                neighbor_radio._state = rx
                neighbor_radio._rx_since = now
                if tracing:
                    trace.emit(now, "radio.state", node=neighbor, old=idle.value, new=rx.value)
                receivers[neighbor] = True
                neighbor_radio._rx_lock = transmission
            transmission.covered = (sender,) + neighbors
            transmission.covered_lists = tuple(audible_lists)
        if collisions:
            stats.collisions += collisions
        if missed_asleep:
            stats.missed_asleep += missed_asleep

        sim.schedule_at(
            transmission.end,
            self._finish_transmission_cb,
            transmission,
            priority=EventPriority.HIGH,
        )
        return transmission

    def _end_drain(self, receiver: int) -> None:
        """Return a post-collision receiver to idle once the air has cleared."""
        self._draining.pop(receiver, None)
        attached = self._attached.get(receiver)
        if attached is None:
            return
        radio = attached[0]
        if radio._state is _RX:
            radio._set_state(_IDLE)

    def _finish_transmission(self, transmission: Transmission) -> None:
        attached = self._attached
        sender_attached = attached.get(transmission.sender)
        if sender_attached is not None:
            sender_attached[0].end_tx()
        self._active.pop(transmission.sender, None)
        covering = self._covering
        for entries in transmission.covered_lists:
            entries.remove(transmission)
        now = self._sim.now
        trace = self._sim.trace
        tracing = trace.enabled
        loss_model = None if self._lossless else self._loss_model
        stats = self.stats
        packet = transmission.packet
        deliveries = 0

        for receiver, intact in transmission.receivers.items():
            receiver_attached = attached.get(receiver)
            if receiver_attached is None:
                continue
            receiver_radio = receiver_attached[0]
            if receiver_radio._rx_lock is transmission:
                receiver_radio._rx_lock = None
                draining = False
                if not intact:
                    # BUGFIX(collision window): this receiver locked onto a
                    # frame that was corrupted by an overlap.  If overlapping
                    # frames are still on the air here, the radio keeps
                    # hearing (unusable) energy, so it stays in RX until the
                    # last of them ends instead of going idle and locking
                    # onto a third frame mid-collision.  The horizon is fixed
                    # at this instant: frames starting during the drain are
                    # ordinary busy-radio misses (same fidelity as a frame
                    # arriving at any non-idle radio), which keeps one
                    # collision from cascading into an unbounded RX lock.
                    others = covering.get(receiver)
                    if others:
                        horizon = others[0].end
                        for other in others[1:]:
                            if other.end > horizon:
                                horizon = other.end
                        self._draining[receiver] = self._sim.schedule_at(
                            horizon,
                            self._end_drain_cb,
                            receiver,
                            priority=EventPriority.HIGH,
                        )
                        draining = True
                if not draining:
                    # Invariant: a locked receiver's radio is in RX (the only
                    # abort_rx caller, unregister, clears the lock first), so
                    # leave RX without Radio.end_rx's re-validation.
                    receiver_radio._set_state(_IDLE)
            if not intact:
                continue
            if loss_model is not None and loss_model.should_drop(
                transmission.sender, receiver, packet
            ):
                stats.dropped_by_loss_model += 1
                if tracing:
                    trace.emit(
                        now,
                        "channel.loss_model_drop",
                        node=receiver,
                        packet_id=packet.packet_id,
                    )
                continue
            deliver = receiver_attached[1]
            deliveries += 1
            if tracing:
                trace.emit(
                    now,
                    "channel.delivery",
                    node=receiver,
                    packet_id=packet.packet_id,
                    src=transmission.sender,
                )
            deliver(packet, transmission.start)
        if deliveries:
            stats.deliveries += deliveries

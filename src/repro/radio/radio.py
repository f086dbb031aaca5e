"""Radio device state machine.

The :class:`Radio` mediates between three parties:

* the **power manager** (Safe Sleep, SYNC, PSM, SPAN, ...) which calls
  :meth:`Radio.sleep`, :meth:`Radio.sleep_until` and :meth:`Radio.wake_up`,
* the **MAC layer**, which marks transmissions and receptions via
  :meth:`Radio.start_tx` / :meth:`Radio.end_tx` and the RX equivalents, and
* the **wireless channel**, which queries :meth:`Radio.can_receive` and
  :meth:`Radio.is_awake` when deciding packet delivery.

All state residency is recorded in a :class:`DutyCycleTracker` so duty
cycles, energy and sleep-interval histograms can be computed afterwards.
State transitions honour the power profile's ``t_OFF->ON`` and ``t_ON->OFF``
latencies, which is what makes the break-even-time experiments (Figure 9)
meaningful.

Hot-path design
---------------
:meth:`Radio._set_state` inlines :meth:`DutyCycleTracker.record_state`.
Receptions are accounted lazily: every frame puts each idle neighbour into
RX, so the channel's lock loops set ``_state = RX`` and ``_rx_since = now``
and write no tracker state.  The next :meth:`Radio._set_state` (the end of
the reception, a drain or an abort) adds the IDLE stretch before the lock
and then the RX stretch, in the order and with the sums that two eager
``record_state`` calls would have produced; :meth:`Radio.finalize` flushes a
reception still open at the end of the run.  The tracker is therefore
written once per reception, and only by the radio; it is exact whenever no
reception is open, which is all its readers (end-of-run metrics) need.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.events import EventHandle, EventPriority
from .duty_cycle import DutyCycleTracker
from .energy import PowerProfile, break_even_time
from .states import RadioState


class RadioError(RuntimeError):
    """Raised on invalid radio state transitions requested by callers."""


#: Hot-path constants: identity checks against these avoid both rebuilding a
#: member tuple per call and paying ``Enum.__hash__`` for a set lookup.
_IDLE = RadioState.IDLE
_RX = RadioState.RX
_TX = RadioState.TX
_OFF = RadioState.OFF


class Radio:
    """Radio hardware model for a single node."""

    __slots__ = (
        "_sim",
        "_trace",
        "node_id",
        "profile",
        "_state",
        "tracker",
        "_wake_listeners",
        "_idle_listeners",
        "_rx_lock",
        "_rx_since",
        "_pending_wake",
        "_pending_transition",
        "_wake_requested_during_turn_off",
        "sleep_count",
        "wake_count",
        "refused_sleeps",
    )

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        profile: PowerProfile,
        *,
        start_awake: bool = True,
    ) -> None:
        self._sim = sim
        # The recorder object is fixed for a simulator's lifetime; caching it
        # saves a lookup chain on every state transition.
        self._trace = sim.trace
        self.node_id = node_id
        self.profile = profile
        self._state = RadioState.IDLE if start_awake else RadioState.OFF
        self.tracker = DutyCycleTracker(profile, start_time=sim.now)
        if not start_awake:
            # The tracker starts in IDLE by construction; record the initial
            # OFF state immediately so accounting is correct.
            self.tracker.record_state(sim.now, RadioState.OFF)
        self._wake_listeners: Tuple[Callable[[], None], ...] = ()
        self._idle_listeners: Tuple[Callable[[], None], ...] = ()
        #: The in-flight transmission this radio is locked onto, if any.
        #: Owned and maintained by the WirelessChannel (kept here because a
        #: slot read beats a dict lookup in the per-receiver hot loops).
        self._rx_lock = None
        #: Start of a reception the channel locked this radio onto, not yet
        #: accounted: the lock sets ``_state = RX`` and this field only, and
        #: the next :meth:`_set_state` (or :meth:`finalize`) writes the
        #: IDLE lead-in and the RX stretch to the tracker in one go.
        self._rx_since: Optional[float] = None
        self._pending_wake: Optional[EventHandle] = None
        self._pending_transition: Optional[EventHandle] = None
        self._wake_requested_during_turn_off = False
        #: Number of times the radio was put to sleep.
        self.sleep_count = 0
        #: Number of times the radio completed a wake-up.
        self.wake_count = 0
        #: Number of sleep requests refused (busy or below break-even time).
        self.refused_sleeps = 0

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> RadioState:
        """Current radio state."""
        return self._state

    @property
    def is_awake(self) -> bool:
        """Whether the radio is fully powered (idle, receiving or transmitting)."""
        state = self._state
        return state is _IDLE or state is _RX or state is _TX

    @property
    def is_asleep(self) -> bool:
        """Whether the radio is fully powered down."""
        return self._state is _OFF

    @property
    def can_receive(self) -> bool:
        """Whether a new incoming transmission can be locked onto right now."""
        return self._state is _IDLE

    @property
    def can_transmit(self) -> bool:
        """Whether the MAC may start a transmission right now."""
        return self._state is _IDLE

    @property
    def break_even_time(self) -> float:
        """Break-even time ``t_BE`` implied by the power profile (seconds)."""
        return break_even_time(self.profile)

    @property
    def t_off_to_on(self) -> float:
        """Wake-up transition latency in seconds."""
        return self.profile.t_off_to_on

    # ------------------------------------------------------------------ #
    # listeners
    # ------------------------------------------------------------------ #

    def on_wake(self, listener: Callable[[], None]) -> None:
        """Register ``listener`` to run every time the radio finishes waking up.

        The listeners are a tuple (parity with ``TimingTable.subscribe``):
        the notification loops iterate without snapshotting, so registration
        rebinds a new tuple instead of mutating the one in flight.
        """
        self._wake_listeners = (*self._wake_listeners, listener)

    def on_enter_idle(self, listener: Callable[[], None]) -> None:
        """Register ``listener()`` to run whenever the radio enters IDLE.

        Safe Sleep re-evaluates on return-to-idle, so the listener runs only
        on IDLE entries instead of on every transition.
        """
        self._idle_listeners = (*self._idle_listeners, listener)

    # ------------------------------------------------------------------ #
    # power management interface
    # ------------------------------------------------------------------ #

    def sleep(self) -> bool:
        """Turn the radio off now.

        Returns ``True`` if the radio started turning off, ``False`` if the
        request was refused because the radio is busy transmitting/receiving
        or already off/turning off.
        """
        if self._state in (RadioState.OFF, RadioState.TURNING_OFF):
            return False
        if self._state in (RadioState.TX, RadioState.RX, RadioState.TURNING_ON):
            self.refused_sleeps += 1
            return False
        self._cancel_pending_wake()
        self.sleep_count += 1
        if self.profile.t_on_to_off > 0:
            self._set_state(RadioState.TURNING_OFF)
            self._pending_transition = self._sim.schedule_in(
                self.profile.t_on_to_off,
                self._complete_turn_off,
                priority=EventPriority.HIGH,
            )
        else:
            self._complete_turn_off()
        return True

    def sleep_until(self, wake_time: float) -> bool:
        """Sleep now and be fully awake again by ``wake_time``.

        This implements the Safe Sleep contract: the wake-up transition is
        started ``t_OFF->ON`` before ``wake_time`` so the radio is IDLE at
        ``wake_time``.  The request is refused (returns ``False``) when the
        interval is too short to fit both transitions.
        """
        now = self._sim.now
        wake_start = wake_time - self.profile.t_off_to_on
        if wake_start <= now + self.profile.t_on_to_off:
            self.refused_sleeps += 1
            return False
        if not self.sleep():
            return False
        self._pending_wake = self._sim.schedule_at(
            wake_start,
            self.wake_up,
            priority=EventPriority.HIGH,
        )
        return True

    @property
    def scheduled_wake_time(self) -> Optional[float]:
        """Time at which a pending :meth:`sleep_until` wake-up will complete.

        ``None`` when no wake-up is scheduled (the radio is awake, or it was
        put to sleep without a wake time).
        """
        pending_wake = self._pending_wake
        if pending_wake is None or pending_wake[3] is None:
            return None
        return pending_wake[0] + self.profile.t_off_to_on

    def advance_wake(self, wake_time: float) -> None:
        """Make sure the radio is fully awake by ``wake_time``.

        Used when a new, earlier expectation appears while the radio is
        asleep (e.g. a query registered at runtime): the pending wake-up is
        moved forward, never delayed.  A no-op when the radio is already
        awake or waking up.
        """
        if self._state not in (RadioState.OFF, RadioState.TURNING_OFF):
            return
        current = self.scheduled_wake_time
        if current is not None and current <= wake_time:
            return
        self._cancel_pending_wake()
        start = wake_time - self.profile.t_off_to_on
        if start <= self._sim.now:
            self.wake_up()
            return
        self._pending_wake = self._sim.schedule_at(
            start,
            self.wake_up,
            priority=EventPriority.HIGH,
        )

    def wake_up(self) -> None:
        """Start powering the radio on (no-op when already awake or waking)."""
        if self._state in (RadioState.IDLE, RadioState.RX, RadioState.TX, RadioState.TURNING_ON):
            return
        self._cancel_pending_wake()
        if self._state is RadioState.TURNING_OFF:
            # Finish turning off first, then immediately wake up.
            self._wake_requested_during_turn_off = True
            return
        if self.profile.t_off_to_on > 0:
            self._set_state(RadioState.TURNING_ON)
            self._pending_transition = self._sim.schedule_in(
                self.profile.t_off_to_on,
                self._complete_turn_on,
                priority=EventPriority.HIGH,
            )
        else:
            self._complete_turn_on()

    # ------------------------------------------------------------------ #
    # MAC interface
    # ------------------------------------------------------------------ #

    def start_tx(self) -> None:
        """Enter the TX state (MAC is about to put a frame on the air)."""
        if self._state is not RadioState.IDLE:
            raise RadioError(
                f"node {self.node_id}: cannot start TX from state {self._state.value}"
            )
        self._set_state(RadioState.TX)

    def end_tx(self) -> None:
        """Leave the TX state back to idle listening."""
        if self._state is not RadioState.TX:
            raise RadioError(
                f"node {self.node_id}: cannot end TX from state {self._state.value}"
            )
        self._set_state(RadioState.IDLE)

    def start_rx(self) -> None:
        """Enter the RX state (channel delivered the start of a frame)."""
        if self._state is not RadioState.IDLE:
            raise RadioError(
                f"node {self.node_id}: cannot start RX from state {self._state.value}"
            )
        self._set_state(RadioState.RX)

    def end_rx(self) -> None:
        """Leave the RX state back to idle listening."""
        if self._state is not RadioState.RX:
            raise RadioError(
                f"node {self.node_id}: cannot end RX from state {self._state.value}"
            )
        self._set_state(RadioState.IDLE)

    def abort_rx(self) -> None:
        """Abort an in-progress reception (e.g. the radio is forced off)."""
        if self._state is RadioState.RX:
            self._set_state(RadioState.IDLE)

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #

    def finalize(self) -> None:
        """Close duty-cycle accounting at the current simulation time.

        A reception still open is flushed first with the tracker call its
        lock would have made (no state change, no listener call), so the
        close adds its RX stretch.
        """
        rx_since = self._rx_since
        if rx_since is not None:
            self._rx_since = None
            self.tracker.record_state(rx_since, _RX)
        self.tracker.close(self._sim.now)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _cancel_pending_wake(self) -> None:
        if self._pending_wake is not None:
            self._sim.cancel(self._pending_wake)
            self._pending_wake = None

    def _complete_turn_off(self) -> None:
        self._pending_transition = None
        self._set_state(RadioState.OFF)
        if self._wake_requested_during_turn_off:
            self._wake_requested_during_turn_off = False
            self.wake_up()

    def _complete_turn_on(self) -> None:
        self._pending_transition = None
        self._set_state(RadioState.IDLE)
        self.wake_count += 1
        for listener in self._wake_listeners:
            listener()

    def _set_state(self, new_state: RadioState) -> None:
        old_state = self._state
        if new_state is old_state:
            return
        sim = self._sim
        now = sim.now
        # Inlined DutyCycleTracker.record_state (keep in sync with it): a
        # radio transition happens several times per simulated frame, and
        # the extra call layer was measurable at paper scale.
        tracker = self.tracker
        if tracker._closed_at is not None:
            raise RuntimeError("tracker already closed")
        since = tracker._current_since
        current = tracker._current_state
        rx_since = self._rx_since
        if rx_since is not None:
            # A reception the channel locked at ``rx_since`` is ending: add
            # the IDLE stretch before it, exactly as an IDLE -> RX call at
            # lock time would have, then account the RX stretch below.
            # Neither state is OFF, so no sleep interval opens or closes.
            self._rx_since = None
            slot = current.slot
            if not tracker._touched[slot]:
                tracker._touched[slot] = True
                tracker._state_order.append(current)
            tracker._state_time[slot] += rx_since - since
            current = _RX
            since = rx_since
        if now < since:
            raise ValueError(
                f"state change at t={now} precedes current interval start t={since}"
            )
        slot = current.slot
        if not tracker._touched[slot]:
            tracker._touched[slot] = True
            tracker._state_order.append(current)
        tracker._state_time[slot] += now - since
        off = _OFF
        if current is not off and new_state is off:
            tracker._sleep_started_at = now
        elif current is off and new_state is not off:
            if tracker._sleep_started_at is not None:
                tracker._sleep_intervals.append(now - tracker._sleep_started_at)
                tracker._sleep_started_at = None
        tracker._current_state = new_state
        tracker._current_since = now

        trace = self._trace
        if trace.enabled:
            trace.emit(
                now,
                "radio.state",
                node=self.node_id,
                old=old_state.value,
                new=new_state.value,
            )
        self._state = new_state
        if new_state is _IDLE:
            idle_listeners = self._idle_listeners
            if idle_listeners:
                for listener in idle_listeners:
                    listener()

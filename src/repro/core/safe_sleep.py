"""Safe Sleep (SS): the local sleep-scheduling algorithm of Section 4.1.

Safe Sleep turns the radio off exactly when the node is *free* -- it expects
neither to receive nor to send a data report -- and the free interval is
longer than the radio's break-even time ``t_BE``, and it starts the wake-up
transition ``t_OFF->ON`` before the next expected event so the radio is
listening again just in time.  By construction it therefore never introduces
a delay or energy penalty (hence "safe").

The algorithm mirrors the paper's pseudocode (Figure 1): it re-evaluates the
node's state after every update to the expected send/receive times (made by
the traffic shaper through the :class:`~repro.core.timing.TimingTable`), and
whenever the node finishes sending or receiving a data report.

Implementation notes
--------------------
* ``checkState`` is deferred to the end of the current instant
  (:meth:`~repro.sim.engine.Simulator.defer`) so that a chain of bookkeeping
  updates (e.g. "last child report arrived -> aggregate -> hand the report
  to the MAC") completes before the sleep decision is made; otherwise the
  node could power down between two steps of the same logical action.  The
  check runs after every HIGH and NORMAL event of that instant, and in
  request order among its LOW events, without touching the event heap.
  Repeated requests before it runs coalesce into one check.
* The node never sleeps while the MAC still holds frames to transmit, and the
  radio itself refuses to sleep mid-reception or mid-transmission.
* The break-even time defaults to the one implied by the radio's power
  profile but can be overridden -- the paper's Figure 9 sweeps ``T_BE`` as an
  SS parameter while keeping the radio fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..mac.csma import CsmaMac
from ..radio.radio import Radio
from ..radio.states import RadioState
from ..sim.engine import Simulator
from ..sim.events import EventPriority
from .timing import TimingTable

#: Hoisted enum lookups: ``check_state`` runs after nearly every simulator
#: event, and the attribute chains showed up at paper scale.
_LOW = EventPriority.LOW
_OFF = RadioState.OFF
_TURNING_ON = RadioState.TURNING_ON
_TURNING_OFF = RadioState.TURNING_OFF


@dataclass(slots=True)
class SafeSleepStats:
    """Counters describing one node's Safe Sleep activity."""

    checks: int = 0
    sleeps: int = 0
    kept_awake_busy_mac: int = 0
    kept_awake_below_break_even: int = 0
    kept_awake_expectation_due: int = 0
    kept_awake_setup_slot: int = 0


class SafeSleep:
    """Safe Sleep scheduler instance for one node."""

    __slots__ = (
        "_sim",
        "_radio",
        "_mac",
        "_table",
        "break_even_time",
        "setup_until",
        "enabled",
        "stats",
        "_check_pending",
        "_next_wakeup",
        "_do_check_cb",
        "_check_state_cb",
        "_defer",
        "_mac_has_pending",
    )

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        mac: CsmaMac,
        table: TimingTable,
        *,
        break_even_time: Optional[float] = None,
        setup_until: float = 0.0,
    ) -> None:
        self._sim = sim
        self._radio = radio
        self._mac = mac
        self._table = table
        #: Break-even time used to gate sleep decisions (Figure 9 parameter).
        self.break_even_time = (
            break_even_time if break_even_time is not None else radio.break_even_time
        )
        #: Until this time the node stays awake to serve query/tree setup
        #: traffic (the paper's "setup slot").
        self.setup_until = setup_until
        #: Cleared when the node is retired (failed or cut off the tree).
        self.enabled = True
        self.stats = SafeSleepStats()
        self._check_pending = False
        # Pre-bound hot-path callables: the table minimum is read once or
        # twice per check (the table keeps it incrementally, so the call is
        # O(1)), and re-binding the check/schedule methods on every trigger
        # allocated a bound method per simulator event.
        self._next_wakeup = table.next_wakeup
        self._do_check_cb = self._do_check
        self._check_state_cb = self.check_state
        self._defer = sim.defer
        # Bind the MAC's has_pending property getter once: the descriptor
        # dispatch per check was measurable.
        self._mac_has_pending = CsmaMac.has_pending.fget.__get__(mac, CsmaMac)
        table.subscribe(self._check_state_cb)
        radio.on_wake(self._check_state_cb)
        # Re-evaluate whenever the radio returns to idle listening (e.g. it
        # just finished transmitting an acknowledgement): that is the moment
        # the node may have become free.  Registered through the radio's
        # idle-entry fast path so the listener does not run on every one of
        # the (several-per-frame) other transitions.
        radio.on_enter_idle(self._check_state_cb)

    # ------------------------------------------------------------------ #

    def check_state(self) -> None:
        """Request a (deferred, coalesced) re-evaluation of the sleep decision."""
        if self._check_pending or not self.enabled:
            return
        self._check_pending = True
        self._defer(self._do_check_cb)

    def _do_check(self) -> None:
        self._check_pending = False
        stats = self.stats
        stats.checks += 1
        now = self._sim.now

        if now < self.setup_until:
            stats.kept_awake_setup_slot += 1
            self._schedule_recheck(self.setup_until)
            return
        # Read the radio state once (private attribute: this check runs after
        # nearly every radio/table transition, and even the property
        # descriptor was measurable here).
        radio = self._radio
        state = radio._state
        if state is _OFF:
            # A new expectation may have appeared while asleep (e.g. a query
            # registered at runtime): pull the scheduled wake-up forward if
            # the node now needs to be up earlier.
            t_wakeup = self._next_wakeup()
            if t_wakeup is not None:
                radio.advance_wake(t_wakeup if t_wakeup > now else now)
            return
        if state is _TURNING_ON or state is _TURNING_OFF:
            # Transitioning; the wake-up path re-checks on completion.
            return
        if self._mac_has_pending():
            # Sending (or about to send); SS re-runs when the shaper records
            # the completed send in the timing table.
            stats.kept_awake_busy_mac += 1
            return

        # Inlined TimingTable.next_wakeup fast path (private access, like the
        # radio state read above): the cached minimum is valid in the vastly
        # common case, and this check runs after nearly every event.
        table = self._table
        t_wakeup = table._cached_min if table._min_valid else self._next_wakeup()
        if t_wakeup is None:
            # No queries routed through this node: nothing to schedule
            # against, so leave the radio alone (the protocol above decides
            # what an idle node should do).
            return

        t_sleep = t_wakeup - now
        if t_sleep <= 0:
            # A data report is due (or overdue): the node is busy listening.
            stats.kept_awake_expectation_due += 1
            return
        if t_sleep <= self.break_even_time:
            # Sleeping would cost more than it saves (or would make the node
            # late); stay awake until the expectation and re-check then.
            stats.kept_awake_below_break_even += 1
            self._schedule_recheck(t_wakeup)
            return

        if radio.sleep_until(t_wakeup):
            stats.sleeps += 1
            trace = self._sim.trace
            if trace.enabled:
                trace.emit(
                    now,
                    "safe_sleep.sleep",
                    node=radio.node_id,
                    until=t_wakeup,
                    interval=t_sleep,
                )

    def _schedule_recheck(self, when: float) -> None:
        if when <= self._sim.now:
            return
        self._sim.schedule_at(when, self._check_state_cb, priority=_LOW)

"""Duty-cycle, energy and sleep-interval accounting.

Each radio owns a :class:`DutyCycleTracker` that records the time spent in
every :class:`~repro.radio.states.RadioState`, the energy consumed, and the
length of each completed sleep interval.  The experiment metrics in
:mod:`repro.experiments.metrics` are computed from these trackers:

* *average node duty cycle* (Figures 2, 3, 4, 9),
* *duty cycle by rank* (Figure 5),
* *sleep-interval histogram* (Figure 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .energy import PowerProfile
from .states import RadioState, is_active


class DutyCycleTracker:
    """Accumulates radio state residency for one node.

    The tracker is fed by the radio state machine via :meth:`record_state`
    and finalized with :meth:`close` at the end of the simulation.
    """

    __slots__ = (
        "_profile",
        "_state_time",
        "_touched",
        "_state_order",
        "_sleep_intervals",
        "_current_state",
        "_current_since",
        "_start_time",
        "_closed_at",
        "_sleep_started_at",
    )

    def __init__(self, profile: PowerProfile, start_time: float = 0.0) -> None:
        self._profile = profile
        # Accumulated residency per state, indexed by ``RadioState.slot``:
        # a plain list sidesteps the interpreter-level enum hashing that a
        # state-keyed dict pays twice per update (this runs on every radio
        # state change).  ``_state_order`` remembers the first-touch order so
        # the summing accessors add in exactly the order the previous
        # dict-based implementation did (float addition is order-sensitive
        # and these sums feed bit-for-bit-pinned metrics).
        self._state_time: List[float] = [0.0] * len(RadioState)
        self._touched: List[bool] = [False] * len(RadioState)
        self._state_order: List[RadioState] = []
        self._sleep_intervals: List[float] = []
        self._current_state: RadioState = RadioState.IDLE
        self._current_since: float = start_time
        self._start_time = start_time
        self._closed_at: Optional[float] = None
        self._sleep_started_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record_state(self, time: float, new_state: RadioState) -> None:
        """Record a state change at ``time``.

        Consecutive identical states are merged.  Sleep intervals are
        measured from entering :attr:`RadioState.OFF` to leaving it.

        NOTE: :meth:`repro.radio.radio.Radio._set_state` inlines this body
        on its hot path; keep the two in sync.
        """
        if self._closed_at is not None:
            raise RuntimeError("tracker already closed")
        if time < self._current_since:
            raise ValueError(
                f"state change at t={time} precedes current interval start "
                f"t={self._current_since}"
            )
        current = self._current_state
        slot = current.slot
        if not self._touched[slot]:
            self._touched[slot] = True
            self._state_order.append(current)
        self._state_time[slot] += time - self._current_since

        off = RadioState.OFF
        if current is not off and new_state is off:
            self._sleep_started_at = time
        elif current is off and new_state is not off:
            if self._sleep_started_at is not None:
                self._sleep_intervals.append(time - self._sleep_started_at)
                self._sleep_started_at = None

        self._current_state = new_state
        self._current_since = time

    def close(self, time: float) -> None:
        """Close the tracker at ``time`` (end of simulation).

        A sleep interval still open at the end of the run is recorded with
        the simulation end as its endpoint.
        """
        if self._closed_at is not None:
            return
        self.record_state(time, self._current_state)
        if self._current_state is RadioState.OFF and self._sleep_started_at is not None:
            self._sleep_intervals.append(time - self._sleep_started_at)
            self._sleep_started_at = None
        self._closed_at = time

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def profile(self) -> PowerProfile:
        """The power profile used for energy computations."""
        return self._profile

    def time_in_state(self, state: RadioState) -> float:
        """Total time accumulated in ``state`` so far."""
        return self._state_time[state.slot]

    def total_time(self) -> float:
        """Total observed time across all states."""
        return sum(self._state_time[state.slot] for state in self._state_order)

    def active_time(self) -> float:
        """Total time in states that count as active (non-sleeping)."""
        return sum(
            self._state_time[state.slot]
            for state in self._state_order
            if is_active(state)
        )

    def sleep_time(self) -> float:
        """Total time spent with the radio off."""
        return self._state_time[RadioState.OFF.slot]

    def duty_cycle(self) -> float:
        """Fraction of observed time the node was active, in [0, 1].

        Matches the paper's definition: "the percentage of time a node
        remains active during a query" (Section 5.1).
        """
        total = self.total_time()
        if total <= 0:
            return 0.0
        return self.active_time() / total

    def energy_consumed(self) -> float:
        """Total energy in joules consumed according to the power profile."""
        return sum(
            self._profile.power(state) * self._state_time[state.slot]
            for state in self._state_order
        )

    @property
    def sleep_intervals(self) -> List[float]:
        """Lengths (seconds) of all completed sleep intervals."""
        return list(self._sleep_intervals)

    def sleep_interval_histogram(
        self, bin_width: float = 0.025, max_value: Optional[float] = None
    ) -> List[Tuple[float, int]]:
        """Histogram of sleep-interval lengths.

        Returns a list of ``(bin_upper_edge, count)`` pairs matching the
        presentation of Figure 8, where each point at ``x`` counts intervals
        whose length falls in ``(x - bin_width, x]``.
        """
        return histogram_sleep_intervals(self._sleep_intervals, bin_width, max_value)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict summary useful for logging and test assertions."""
        return {
            "duty_cycle": self.duty_cycle(),
            "active_time": self.active_time(),
            "sleep_time": self.sleep_time(),
            "energy_j": self.energy_consumed(),
            "sleep_intervals": float(len(self._sleep_intervals)),
        }


def histogram_sleep_intervals(
    intervals: Sequence[float], bin_width: float = 0.025, max_value: Optional[float] = None
) -> List[Tuple[float, int]]:
    """Bin sleep-interval lengths into ``bin_width``-sized buckets.

    Parameters
    ----------
    intervals:
        Sleep interval lengths in seconds.
    bin_width:
        Bucket width in seconds (the paper uses 25 ms buckets).
    max_value:
        If given, intervals longer than this are clamped into the last
        bucket; otherwise buckets extend to cover the longest interval.
    """
    if bin_width <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width!r}")
    if not intervals:
        return []
    longest = max(intervals)
    upper = max_value if max_value is not None else longest
    num_bins = max(1, int(-(-upper // bin_width)))  # ceil division
    counts = [0] * num_bins
    for value in intervals:
        index = int(value / bin_width)
        if value > 0 and value % bin_width == 0:
            # A value exactly on a bin edge belongs to the lower bucket,
            # matching the (x - width, x] convention.
            index -= 1
        index = min(index, num_bins - 1)
        counts[index] += 1
    return [((i + 1) * bin_width, counts[i]) for i in range(num_bins)]


def fraction_shorter_than(intervals: Sequence[float], threshold: float) -> float:
    """Fraction of sleep intervals strictly shorter than ``threshold``.

    The paper reports, for TBE = 2.5 ms, fractions of 0.40 %, 0.85 % and
    6.33 % for NTS-SS, STS-SS and DTS-SS respectively (Section 5.3).
    """
    if not intervals:
        return 0.0
    short = sum(1 for value in intervals if value < threshold)
    return short / len(intervals)

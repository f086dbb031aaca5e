"""Unit and property tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import EventPriority
from repro.sim.process import Timer


class TestScheduling:
    def test_clock_starts_at_zero(self, sim: Simulator) -> None:
        assert sim.now == 0.0

    def test_schedule_at_runs_callback_at_time(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_schedule_in_is_relative(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(2.0, lambda: sim.schedule_in(0.5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [2.5]

    def test_schedule_in_past_raises(self, sim: Simulator) -> None:
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.schedule_in(-0.1, lambda: None)

    def test_events_fire_in_time_order(self, sim: Simulator) -> None:
        order = []
        sim.schedule_at(3.0, lambda: order.append(3))
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_fire_in_fifo_order(self, sim: Simulator) -> None:
        order = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self, sim: Simulator) -> None:
        order = []
        sim.schedule_at(1.0, lambda: order.append("normal"), priority=EventPriority.NORMAL)
        sim.schedule_at(1.0, lambda: order.append("high"), priority=EventPriority.HIGH)
        sim.schedule_at(1.0, lambda: order.append("low"), priority=EventPriority.LOW)
        sim.run()
        assert order == ["high", "normal", "low"]

    def test_cancel_prevents_firing(self, sim: Simulator) -> None:
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []
        assert handle[3] is None

    def test_run_until_stops_before_later_events(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        end = sim.run(until=2.0)
        assert fired == [1]
        assert end == 2.0
        assert sim.pending_events == 1

    def test_run_until_executes_event_at_horizon(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]

    def test_run_advances_clock_to_until_when_queue_drains(self, sim: Simulator) -> None:
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_stop_halts_run(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_limits_run(self, sim: Simulator) -> None:
        fired = []
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_max_events_break_does_not_corrupt_clock(self, sim: Simulator) -> None:
        """Regression: `until` + `max_events` must not fast-forward past
        still-pending events (the next run() used to see events in the past)."""
        fired = []
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda i=i: fired.append(i))
        end = sim.run(until=20.0, max_events=3)
        assert end == 3.0
        assert sim.now == 3.0
        assert sim.pending_events == 7
        # Pre-fix this raised SimulationError("event queue corrupted: ...").
        end = sim.run(until=20.0)
        assert end == 20.0
        assert fired == list(range(10))

    def test_max_events_that_exactly_drains_queue_still_fast_forwards(
        self, sim: Simulator
    ) -> None:
        sim.schedule_at(1.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 10.0

    def test_fast_forward_skips_cancelled_events_before_until(self, sim: Simulator) -> None:
        sim.schedule_at(1.0, lambda: None)
        late = sim.schedule_at(5.0, lambda: None)
        sim.cancel(late)
        assert sim.run(until=10.0, max_events=1) == 10.0

    def test_pending_excludes_cancelled_queued_includes(self, sim: Simulator) -> None:
        sim.schedule_at(1.0, lambda: None)
        cancelled = sim.schedule_at(2.0, lambda: None)
        sim.cancel(cancelled)
        assert sim.pending_events == 1
        assert sim.queued_events == 2

    def test_peek_next_time(self, sim: Simulator) -> None:
        assert sim.peek_next_time() is None
        handle = sim.schedule_at(4.0, lambda: None)
        sim.schedule_at(6.0, lambda: None)
        assert sim.peek_next_time() == 4.0
        sim.cancel(handle)
        assert sim.peek_next_time() == 6.0

    def test_processed_events_counter(self, sim: Simulator) -> None:
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestPeriodic:
    def test_call_every_fires_at_period(self, sim: Simulator) -> None:
        times = []
        sim.call_every(1.0, lambda: times.append(sim.now), start=1.0)
        sim.run(until=5.0)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_call_every_with_count(self, sim: Simulator) -> None:
        times = []
        sim.call_every(0.5, lambda: times.append(sim.now), start=0.5, count=3)
        sim.run(until=10.0)
        assert times == [0.5, 1.0, 1.5]

    def test_call_every_cancel(self, sim: Simulator) -> None:
        times = []
        handle = sim.call_every(1.0, lambda: times.append(sim.now), start=1.0)
        sim.schedule_at(2.5, handle.cancel)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert handle.cancelled

    def test_call_every_rejects_nonpositive_period(self, sim: Simulator) -> None:
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)


class TestTimer:
    def test_timer_fires_once(self, sim: Simulator) -> None:
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start_in(2.0)
        sim.run()
        assert fired == [2.0]
        assert not timer.pending

    def test_timer_restart_replaces_pending(self, sim: Simulator) -> None:
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start_in(2.0)
        timer.start_in(5.0)
        sim.run()
        assert fired == [5.0]

    def test_timer_cancel(self, sim: Simulator) -> None:
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start_in(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_timer_expiry_property(self, sim: Simulator) -> None:
        timer = Timer(sim, lambda: None)
        assert timer.expiry is None
        timer.start_at(3.0)
        assert timer.expiry == 3.0
        # Re-arming cancels the old handle; firing and cancelling clear it.
        timer.start_at(4.0)
        assert timer.pending and timer.expiry == 4.0
        assert sim.cancelled_events == 1
        sim.run()
        assert not timer.pending and timer.expiry is None
        timer.start_at(6.0)
        timer.cancel()
        assert not timer.pending and timer.expiry is None
        assert sim.cancelled_events == 2

    def test_timer_fired_count(self, sim: Simulator) -> None:
        timer = Timer(sim, lambda: None)
        timer.start_in(1.0)
        sim.run()
        timer.start_in(1.0)
        sim.run()
        assert timer.fired_count == 2


class TestHandles:
    """A handle is the heap entry ``[time, priority, sequence, callback, args]``."""

    def test_handle_is_the_heap_entry(self, sim: Simulator) -> None:
        callback = lambda *args: None  # noqa: E731
        handle = sim.schedule_at(2.0, callback, "a", 1, priority=EventPriority.HIGH)
        assert handle == [2.0, EventPriority.HIGH, 1, callback, ("a", 1)]
        assert sim._heap[0] is handle

    def test_cancel_after_firing_is_a_no_op(self, sim: Simulator) -> None:
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.0, lambda: None)
        sim.run(until=1.5)
        assert fired == [1.0]
        assert handle[3] is None
        sim.cancel(handle)
        assert sim.pending_events == 1
        assert sim.cancelled_events == 0
        sim.run()
        assert sim.processed_events == 2
        assert sim.cancelled_events == 0

    def test_double_cancel_counts_once(self, sim: Simulator) -> None:
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending_events == 1
        assert sim.queued_events == 2
        assert sim.cancelled_events == 1
        sim.run()
        assert sim.processed_events == 1
        assert sim.cancelled_events == 1
        assert sim.queued_events == 0

    def test_cancel_from_another_callback_at_the_same_instant(self, sim: Simulator) -> None:
        fired = []
        handles = {}

        def first() -> None:
            fired.append("first")
            sim.cancel(handles["second"])

        sim.schedule_at(1.0, first)
        handles["second"] = sim.schedule_at(1.0, lambda: fired.append("second"))
        sim.schedule_at(1.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "third"]
        assert sim.processed_events == 2
        assert sim.cancelled_events == 1
        assert sim.pending_events == 0

    def test_a_callback_cancelling_its_own_handle_is_a_no_op(self, sim: Simulator) -> None:
        handles = {}
        handles["self"] = sim.schedule_at(1.0, lambda: sim.cancel(handles["self"]))
        sim.run()
        assert sim.processed_events == 1
        assert sim.cancelled_events == 0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            st.lists(st.integers(min_value=0, max_value=30), max_size=3),
        ),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.integers(min_value=0, max_value=30), max_size=10),
)
def test_property_cancelled_events_stays_exact(program, cancel_up_front) -> None:
    """``cancelled_events`` counts exactly the events cancelled while still
    pending -- not double cancels, cancels of fired events, or events that
    cancel themselves -- and ``pending_events`` the live ones, after every
    fired event."""
    sim = Simulator(seed=0)
    handles: list = []
    cancelled: set = set()
    fired: set = set()

    def cancel(index: int) -> None:
        if handles:
            target = index % len(handles)
            if target not in fired:
                cancelled.add(target)
            sim.cancel(handles[target])

    def make(index: int, targets: list):
        def callback() -> None:
            fired.add(index)
            for target in targets:
                cancel(target)

        return callback

    for index, (time, targets) in enumerate(program):
        handles.append(sim.schedule_at(time, make(index, targets)))
    for target in cancel_up_front:
        cancel(target)
    while True:
        assert sim.cancelled_events == len(cancelled)
        assert sim.pending_events == len(handles) - len(fired) - len(cancelled)
        if sim.peek_next_time() is None:
            break
        sim.run(max_events=1)
    assert fired.isdisjoint(cancelled)
    assert len(fired) + len(cancelled) == len(handles)
    assert sim.cancelled_events == len(cancelled)
    assert sim.pending_events == 0


class TestDeterminism:
    def test_same_seed_same_draws(self) -> None:
        sim_a = Simulator(seed=123)
        sim_b = Simulator(seed=123)
        draws_a = [sim_a.streams.get("mac.backoff.1").random() for _ in range(20)]
        draws_b = [sim_b.streams.get("mac.backoff.1").random() for _ in range(20)]
        assert draws_a == draws_b

    def test_different_streams_are_independent(self) -> None:
        sim = Simulator(seed=5)
        first = sim.streams.get("a").random()
        # Interleaving draws from stream "b" must not change stream "a".
        sim2 = Simulator(seed=5)
        sim2.streams.get("b").random()
        second = sim2.streams.get("a").random()
        assert first == second


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=60))
def test_property_events_always_fire_in_nondecreasing_time_order(times: list[float]) -> None:
    """Events scheduled in any order fire with a non-decreasing clock."""
    sim = Simulator(seed=0)
    observed: list[float] = []
    for t in times:
        sim.schedule_at(t, lambda t=t: observed.append(sim.now))
    sim.run()
    assert len(observed) == len(times)
    assert observed == sorted(observed)
    assert sorted(observed) == sorted(times)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(entries: list[tuple[float, bool]]) -> None:
    """Cancelled events never execute; the rest all execute exactly once."""
    sim = Simulator(seed=0)
    fired: list[int] = []
    expected = 0
    for index, (time, cancel) in enumerate(entries):
        handle = sim.schedule_at(time, lambda index=index: fired.append(index))
        if cancel:
            sim.cancel(handle)
        else:
            expected += 1
    sim.run()
    assert len(fired) == expected
    assert len(set(fired)) == len(fired)


class TestDefer:
    def test_deferred_callback_runs_where_a_zero_delay_low_event_would(
        self, sim: Simulator
    ) -> None:
        order = []

        def first() -> None:
            order.append("first")
            sim.defer(lambda: order.append("deferred"))
            sim.schedule_in(0.0, lambda: order.append("later low"), priority=EventPriority.LOW)
            sim.schedule_in(0.0, lambda: order.append("normal"))
            sim.schedule_in(0.0, lambda: order.append("high"), priority=EventPriority.HIGH)

        sim.schedule_at(1.0, lambda: order.append("earlier low"), priority=EventPriority.LOW)
        sim.schedule_at(1.0, first, priority=EventPriority.HIGH)
        sim.schedule_at(2.0, lambda: order.append("next instant"))
        sim.run()
        assert order == [
            "first",
            "high",
            "normal",
            "earlier low",
            "deferred",
            "later low",
            "next instant",
        ]

    def test_deferred_callbacks_count_as_events(self, sim: Simulator) -> None:
        sim.schedule_at(1.0, lambda: sim.defer(lambda: None))
        sim.defer(lambda: None)
        assert sim.scheduled_events == 2
        assert sim.pending_events == 2
        assert sim.queued_events == 2
        sim.run()
        assert sim.scheduled_events == 3
        assert sim.processed_events == 3
        assert sim.pending_events == 0
        assert sim.cancelled_events == 0

    def test_peek_next_time_is_now_while_deferred_entries_wait(self, sim: Simulator) -> None:
        sim.schedule_at(5.0, lambda: None)
        sim.schedule_at(2.0, lambda: sim.defer(lambda: None))
        sim.run(until=2.0, max_events=1)
        assert sim.now == 2.0
        assert sim.peek_next_time() == 2.0
        sim.run(until=2.0)
        assert sim.peek_next_time() == 5.0

    def test_stop_leaves_deferred_entries_queued(self, sim: Simulator) -> None:
        fired = []

        def stop_after_deferring() -> None:
            sim.defer(lambda: fired.append(sim.now))
            sim.stop()

        sim.schedule_at(1.0, stop_after_deferring)
        sim.run(until=10.0)
        # Stopped with a deferred entry pending: the clock must not jump to
        # the horizon past it.
        assert fired == []
        assert sim.now == 1.0
        assert sim.pending_events == 1
        assert sim.run(until=10.0) == 10.0
        assert fired == [1.0]

    def test_max_events_cut_off_resumes_deferred_entries(self, sim: Simulator) -> None:
        fired = []
        sim.schedule_at(1.0, lambda: [sim.defer(lambda i=i: fired.append(i)) for i in range(3)])
        sim.schedule_at(3.0, lambda: fired.append("later"))
        assert sim.run(until=5.0, max_events=2) == 1.0
        assert fired == [0]
        assert sim.run(until=5.0) == 5.0
        assert fired == [0, 1, 2, "later"]


#: Heap priorities a replayed program can schedule with.
_HEAP_KINDS = {
    "high": EventPriority.HIGH,
    "normal": EventPriority.NORMAL,
    "low": EventPriority.LOW,
}
_ACTION_KINDS = (*_HEAP_KINDS, "defer", "stop", "cancel")

#: One action a fired callback takes: (kind, target program index, delay).
_actions = st.tuples(
    st.sampled_from(_ACTION_KINDS),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([0.0, 0.0, 0.5, 1.0]),
)


def _replay(program, use_defer: bool):
    """Run ``program`` once; zero-delay LOW work goes through ``defer`` or
    through the heap.  Returns the fire log and the state after each run."""
    bodies, initial, runs = program
    sim = Simulator(seed=0)
    log: list = []
    handles: list = []
    budget = [40]

    def act(kind: str, target: int, delay: float) -> None:
        if kind == "stop":
            sim.stop()
            return
        if kind == "cancel":
            if handles:
                sim.cancel(handles[target % len(handles)])
            return
        if budget[0] == 0:
            return
        budget[0] -= 1
        tag = (kind, target, sim.scheduled_events)

        def callback() -> None:
            log.append((tag, sim.now))
            for action in bodies[target % len(bodies)]:
                act(*action)

        if kind != "defer":
            handles.append(sim.schedule_in(delay, callback, priority=_HEAP_KINDS[kind]))
        elif use_defer:
            sim.defer(callback)
        else:
            sim.schedule_in(0.0, callback, priority=EventPriority.LOW)

    for action in initial:
        act(*action)
    states = []
    for delta, max_events in runs:
        until = None if delta is None else sim.now + delta
        end = sim.run(until=until, max_events=max_events)
        states.append(
            (
                end,
                sim.now,
                sim.processed_events,
                sim.scheduled_events,
                sim.pending_events,
                sim.cancelled_events,
                sim.peek_next_time(),
            )
        )
    return log, states


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(
        st.lists(st.lists(_actions, max_size=4), min_size=1, max_size=8),
        st.lists(_actions, min_size=1, max_size=6),
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0])),
                st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
            ),
            min_size=1,
            max_size=4,
        ),
    )
)
def test_property_defer_fires_exactly_like_a_zero_delay_low_event(program) -> None:
    """``defer(cb)`` is observably ``schedule_in(0.0, cb, priority=LOW)``:
    same fire order and times, same counters and ``peek_next_time`` after
    every run -- across same-instant LOW heap events, callbacks that
    schedule at ``now`` or defer again, ``stop()``, ``max_events`` cut-offs
    resumed by later runs, and runs that end with deferred work pending."""
    assert _replay(program, use_defer=True) == _replay(program, use_defer=False)

"""Unit tests for the expected send/receive timing table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timing import TimingTable


class TestTimingTable:
    def test_empty_table(self) -> None:
        table = TimingTable()
        assert table.next_wakeup() is None
        assert table.entries() == []

    def test_set_and_read_expectations(self) -> None:
        table = TimingTable()
        table.set_next_receive(1, child=5, time=2.0)
        table.set_next_send(1, time=3.0)
        assert table.next_receive(1, 5) == 2.0
        assert table.next_send(1) == 3.0
        assert table.next_receive(1, 99) is None
        assert table.next_send(2) is None

    def test_next_wakeup_is_minimum_over_all_entries(self) -> None:
        table = TimingTable()
        table.set_next_receive(1, child=5, time=2.0)
        table.set_next_receive(1, child=6, time=1.5)
        table.set_next_send(1, time=3.0)
        table.set_next_receive(2, child=5, time=0.7)
        assert table.next_wakeup() == pytest.approx(0.7)

    def test_listeners_notified_on_every_change(self) -> None:
        table = TimingTable()
        calls = []
        table.subscribe(lambda: calls.append(1))
        table.set_next_receive(1, 2, 1.0)
        table.set_next_send(1, 2.0)
        table.remove_child(1, 2)
        assert len(calls) == 3

    def test_remove_child_and_query(self) -> None:
        # Removing every child of a query leaves the query no expectation.
        table = TimingTable()
        table.set_next_receive(1, 2, 1.0)
        table.set_next_receive(1, 3, 2.0)
        table.remove_child(1, 2)
        assert table.next_receive(1, 2) is None
        assert table.next_wakeup() == pytest.approx(2.0)
        table.remove_child(1, 3)
        assert table.next_wakeup() is None

    def test_remove_missing_entries_is_silent_and_does_not_notify(self) -> None:
        table = TimingTable()
        calls = []
        table.subscribe(lambda: calls.append(1))
        table.remove_child(1, 2)
        table.set_next_receive(1, 3, 1.0)
        table.remove_child(1, 2)
        table.remove_child(7, 3)
        assert calls == [1]

    def test_entries_listing(self) -> None:
        table = TimingTable()
        table.set_next_receive(1, 2, 1.0)
        table.set_next_send(1, 2.0)
        entries = table.entries()
        assert (1, "receive", 2, 1.0) in entries
        assert (1, "send", None, 2.0) in entries


class TestNoOpWrites:
    """Regression: writing the stored value must not notify listeners.

    Before the fix, ``set_next_receive``/``set_next_send`` fired every
    listener even when the written value was unchanged, scheduling a
    spurious Safe Sleep re-evaluation per no-op write.
    """

    def test_noop_set_next_receive_is_silent(self) -> None:
        table = TimingTable()
        calls: list = []
        table.subscribe(lambda: calls.append(1))
        table.set_next_receive(1, child=2, time=1.5)
        assert len(calls) == 1
        table.set_next_receive(1, child=2, time=1.5)
        assert len(calls) == 1, "no-op write must not notify"
        assert table.next_receive(1, 2) == pytest.approx(1.5)

    def test_noop_set_next_send_is_silent(self) -> None:
        table = TimingTable()
        calls: list = []
        table.subscribe(lambda: calls.append(1))
        table.set_next_send(1, time=2.5)
        assert len(calls) == 1
        table.set_next_send(1, time=2.5)
        assert len(calls) == 1, "no-op write must not notify"
        assert table.next_send(1) == pytest.approx(2.5)

    def test_changed_write_still_notifies(self) -> None:
        table = TimingTable()
        calls: list = []
        table.subscribe(lambda: calls.append(1))
        table.set_next_receive(1, child=2, time=1.5)
        table.set_next_receive(1, child=2, time=1.5)
        table.set_next_receive(1, child=2, time=2.5)
        table.set_next_send(1, time=3.0)
        table.set_next_send(1, time=3.0)
        table.set_next_send(1, time=4.0)
        assert len(calls) == 4
        assert table.next_wakeup() == pytest.approx(2.5)


class TestEdgeCases:
    def test_remove_last_child_of_last_query_reports_idle(self) -> None:
        table = TimingTable()
        table.set_next_receive(1, child=2, time=1.0)
        table.set_next_receive(2, child=3, time=2.0)
        table.remove_child(1, 2)
        assert table.next_wakeup() == pytest.approx(2.0)
        table.remove_child(2, 3)
        assert table.next_wakeup() is None
        # And the table comes back to life after a fresh expectation.
        table.set_next_send(3, 5.0)
        assert table.next_wakeup() == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # query id
            st.integers(min_value=0, max_value=6),  # child id
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.booleans(),  # receive vs send entry
        ),
        min_size=1,
        max_size=40,
    )
)
def test_property_next_wakeup_is_global_minimum(entries) -> None:
    table = TimingTable()
    expected: dict = {}
    for query_id, child, time, is_receive in entries:
        if is_receive:
            table.set_next_receive(query_id, child, time)
            expected[(query_id, "r", child)] = time
        else:
            table.set_next_send(query_id, time)
            expected[(query_id, "s", None)] = time
    assert table.next_wakeup() == pytest.approx(min(expected.values()))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set_recv", "set_send", "del_child"]),
            st.integers(min_value=1, max_value=3),  # query id
            st.integers(min_value=0, max_value=3),  # child id
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_property_min_cache_survives_mixed_updates_and_removals(ops) -> None:
    """The incrementally maintained minimum equals a model's after every op.

    Exercises the cache-displacement paths (overwriting or removing the
    current minimum) that the set-only property test above never hits.
    """
    table = TimingTable()
    model: dict = {}
    for op, query_id, child, time in ops:
        if op == "set_recv":
            table.set_next_receive(query_id, child, time)
            model[(query_id, "r", child)] = time
        elif op == "set_send":
            table.set_next_send(query_id, time)
            model[(query_id, "s", None)] = time
        else:
            table.remove_child(query_id, child)
            model.pop((query_id, "r", child), None)
        if model:
            assert table.next_wakeup() == pytest.approx(min(model.values()))
        else:
            assert table.next_wakeup() is None

"""Tests for the trace recorder and named random streams."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_emit_and_filter_by_category(self) -> None:
        trace = TraceRecorder()
        trace.emit(0.0, "radio.state", node=1, new="off")
        trace.emit(1.0, "mac.tx", node=2, packet_id=7)
        trace.emit(2.0, "radio.state", node=2, new="idle")
        assert len(trace) == 3
        radio_records = trace.filter(category="radio.state")
        assert [r.node for r in radio_records] == [1, 2]
        assert trace.categories() == {"radio.state", "mac.tx"}

    def test_filter_by_node(self) -> None:
        trace = TraceRecorder()
        trace.emit(0.0, "a", node=1)
        trace.emit(0.5, "b", node=2)
        assert [r.category for r in trace.filter(node=2)] == ["b"]

    def test_disabled_recorder_records_nothing(self) -> None:
        trace = TraceRecorder(enabled=False)
        trace.emit(0.0, "a", node=1)
        assert len(trace) == 0

    def test_subscription_listener_sees_records(self) -> None:
        trace = TraceRecorder()
        seen = []
        trace.subscribe(lambda record: seen.append(record.category))
        trace.emit(0.0, "hello", node=None)
        assert seen == ["hello"]

    def test_clear(self) -> None:
        trace = TraceRecorder()
        trace.emit(0.0, "x", node=1)
        trace.clear()
        assert len(trace) == 0

    def test_simulator_records_no_trace_unless_given_a_recorder(self) -> None:
        assert Simulator().trace.enabled is False
        recorder = TraceRecorder()
        assert Simulator(trace=recorder).trace is recorder


class TestRandomStreams:
    def test_derive_seed_is_stable(self) -> None:
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_get_returns_same_stream_object(self) -> None:
        streams = RandomStreams(0)
        assert streams.get("x") is streams.get("x")

    def test_fork_produces_reproducible_children(self) -> None:
        parent = RandomStreams(9)
        child_a = parent.fork(2).get("x").random()
        child_b = RandomStreams(9).fork(2).get("x").random()
        assert child_a == child_b

    def test_forks_with_different_subseeds_differ(self) -> None:
        parent = RandomStreams(9)
        assert parent.fork(1).get("x").random() != parent.fork(2).get("x").random()

    def test_names_lists_requested_streams(self) -> None:
        streams = RandomStreams(0)
        streams.get("b")
        streams.get("a")
        assert streams.names() == ["a", "b"]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=30))
def test_property_derived_seeds_fit_in_64_bits(seed: int, name: str) -> None:
    value = derive_seed(seed, name)
    assert 0 <= value < 2**64

"""Tests for runtime adaptation: wake-up rescheduling and late query registration."""

from __future__ import annotations

import pytest

from repro.core.protocol import EssatProtocolSuite
from repro.net.node import build_network
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.radio.energy import IDEAL, MICA2_TYPICAL
from repro.radio.radio import Radio
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


class TestAdvanceWake:
    def test_scheduled_wake_time_reflects_pending_wake(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, MICA2_TYPICAL)
        assert radio.scheduled_wake_time is None
        radio.sleep_until(1.0)
        assert radio.scheduled_wake_time == pytest.approx(1.0)
        # An earlier wake cancels and replaces the pending one.
        radio.advance_wake(0.5)
        assert radio.scheduled_wake_time == pytest.approx(0.5)
        assert sim.cancelled_events == 1
        sim.run()
        assert radio.is_awake
        assert radio.scheduled_wake_time is None

    def test_advance_wake_moves_wake_earlier(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, MICA2_TYPICAL)
        woke = []
        radio.on_wake(lambda: woke.append(sim.now))
        radio.sleep_until(2.0)
        sim.run(until=0.5)
        radio.advance_wake(1.0)
        sim.run(until=3.0)
        assert woke[0] == pytest.approx(1.0)

    def test_advance_wake_never_delays(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, MICA2_TYPICAL)
        woke = []
        radio.on_wake(lambda: woke.append(sim.now))
        radio.sleep_until(1.0)
        radio.advance_wake(2.0)
        sim.run(until=3.0)
        assert woke[0] == pytest.approx(1.0)

    def test_advance_wake_for_past_time_wakes_immediately(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, IDEAL)
        radio.sleep()
        radio.advance_wake(0.0)
        assert radio.is_awake

    def test_advance_wake_noop_when_awake(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, IDEAL)
        radio.advance_wake(5.0)
        assert radio.is_awake
        assert radio.scheduled_wake_time is None

    def test_advance_wake_schedules_when_no_wake_pending(self) -> None:
        sim = Simulator(seed=0)
        radio = Radio(sim, 0, IDEAL)
        radio.sleep()
        radio.advance_wake(1.5)
        sim.run(until=2.0)
        assert radio.is_awake


class TestRuntimeQueryRegistration:
    def test_sleeping_nodes_wake_for_a_newly_registered_query(self) -> None:
        """Queries registered while nodes sleep must not be delayed by stale wakes."""
        chain = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim = Simulator(seed=2)
        network = build_network(sim, chain, power_profile=IDEAL)
        tree = build_routing_tree(chain, root=0)
        deliveries = []
        suite = EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper="dts",
            on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, t)),
        )
        # A slow background query puts every node to sleep for long stretches.
        suite.register_query(QuerySpec(query_id=1, period=10.0, start_time=1.0))
        # At t=5 (while everyone sleeps until ~11), a fast query arrives.
        fast = QuerySpec(query_id=2, period=0.5, start_time=5.5)
        sim.schedule_at(5.0, suite.register_query, fast)
        sim.run(until=9.0)
        fast_deliveries = [entry for entry in deliveries if entry[0] == 2]
        # Periods at 5.5, 6.0, ..., 8.5 must be delivered promptly, not after
        # the background query's next wake at t=11.
        assert len(fast_deliveries) >= 6
        first_latency = fast_deliveries[0][2] - fast.report_time(fast_deliveries[0][1])
        assert first_latency < 1.0

    def test_new_query_on_mica2_radio_still_delivered(self) -> None:
        chain = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim = Simulator(seed=2)
        network = build_network(sim, chain, power_profile=MICA2_TYPICAL)
        tree = build_routing_tree(chain, root=0)
        deliveries = []
        suite = EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper="sts",
            on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, t)),
        )
        suite.register_query(QuerySpec(query_id=1, period=8.0, start_time=1.0))
        sim.schedule_at(3.0, suite.register_query, QuerySpec(query_id=2, period=1.0, start_time=4.0))
        sim.run(until=10.0)
        assert any(qid == 2 for qid, _, _ in deliveries)

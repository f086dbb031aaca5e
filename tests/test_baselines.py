"""Tests for the SYNC, PSM, SPAN and always-on baseline protocols."""

from __future__ import annotations

import pytest

from repro.baselines.always_on import AlwaysOnSuite
from repro.baselines.psm import PsmConfig, PsmSuite
from repro.baselines.span import SpanConfig, SpanSuite
from repro.baselines.sync import SyncConfig, SyncSuite
from repro.net.node import build_network
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator

CHAIN = Topology.line(4, spacing=100.0, comm_range=120.0)
# A small tree with two leaves under one relay, so SPAN has a clear backbone.
TREE = Topology.from_positions(
    [(0, 0), (100, 0), (200, 0), (200, 80), (100, 80)], comm_range=125.0
)
QUERY = QuerySpec(query_id=1, period=1.0, start_time=1.0)


def run_baseline(suite_cls, topology, queries, *, duration=10.0, seed=0, **suite_kwargs):
    sim = Simulator(seed=seed)
    network = build_network(sim, topology, power_profile=IDEAL)
    tree = build_routing_tree(topology, root=0)
    deliveries = []
    suite = suite_cls(
        sim,
        network,
        tree,
        on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, report, t)),
        **suite_kwargs,
    )
    suite.register_queries(queries)
    sim.run(until=duration)
    network.finalize()
    return sim, network, tree, suite, deliveries


def duty(network, node_id):
    return network.node(node_id).radio.tracker.duty_cycle()


def mean_latency(deliveries, query):
    values = [t - query.report_time(k) for _, k, _, t in deliveries]
    return sum(values) / len(values)


class TestAlwaysOn:
    def test_delivers_everything_with_full_duty_cycle(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(AlwaysOnSuite, CHAIN, [QUERY])
        assert suite.name == "ALWAYS-ON"
        assert len(deliveries) >= 8
        for node_id in tree.nodes:
            assert duty(network, node_id) == pytest.approx(1.0)


class TestSync:
    def test_config_validation(self) -> None:
        with pytest.raises(ValueError):
            SyncConfig(period=0.0)
        with pytest.raises(ValueError):
            SyncConfig(duty_cycle=0.0)
        with pytest.raises(ValueError):
            SyncConfig(duty_cycle=1.5)
        assert SyncConfig().active_window == pytest.approx(0.04)

    def test_duty_cycle_close_to_configured_value(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SyncSuite, CHAIN, [QUERY])
        assert suite.name == "SYNC"
        for node_id in tree.nodes:
            # Around 20%, allowing for extra awake time finishing frames.
            assert 0.15 <= duty(network, node_id) <= 0.45

    def test_data_still_delivered(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SyncSuite, CHAIN, [QUERY])
        assert len(deliveries) >= 7

    def test_latency_reflects_buffering_until_active_window(self) -> None:
        # Use a query whose generation instants do NOT align with the SYNC
        # schedule (the paper notes SYNC's latency depends on exactly this
        # temporal relationship); misaligned reports wait for the next active
        # window at the first hop.
        query = QuerySpec(query_id=1, period=1.0, start_time=1.07)
        sim, network, tree, suite, deliveries = run_baseline(SyncSuite, CHAIN, [query], duration=15.0)
        assert deliveries
        latency = mean_latency(deliveries, query)
        assert 0.01 < latency < 1.0

    def test_higher_duty_cycle_config_lowers_latency(self) -> None:
        low = run_baseline(SyncSuite, CHAIN, [QUERY], duration=15.0, config=SyncConfig(duty_cycle=0.1))
        high = run_baseline(SyncSuite, CHAIN, [QUERY], duration=15.0, config=SyncConfig(duty_cycle=0.6))
        assert mean_latency(high[4], QUERY) <= mean_latency(low[4], QUERY) + 1e-6


class TestPsm:
    def test_config_validation(self) -> None:
        with pytest.raises(ValueError):
            PsmConfig(beacon_period=0.0)
        with pytest.raises(ValueError):
            PsmConfig(atim_window=0.3)
        with pytest.raises(ValueError):
            PsmConfig(atim_window=0.15, advertisement_window=0.1)
        config = PsmConfig()
        assert config.next_beacon(0.0) == pytest.approx(0.0)
        assert config.next_beacon(0.05) == pytest.approx(0.2)
        assert config.next_beacon(0.2) == pytest.approx(0.2)

    def test_delivers_data_and_sends_atims(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(PsmSuite, CHAIN, [QUERY], duration=12.0)
        assert suite.name == "PSM"
        assert len(deliveries) >= 7
        assert suite.extras()["atims_sent"] > 0

    def test_duty_cycle_floor_is_atim_window_fraction(self) -> None:
        # With no queries at all, every node still wakes for the ATIM window.
        sim, network, tree, suite, deliveries = run_baseline(PsmSuite, CHAIN, [], duration=10.0)
        floor = PsmConfig().atim_window / PsmConfig().beacon_period
        for node_id in tree.nodes:
            assert duty(network, node_id) == pytest.approx(floor, abs=0.05)

    def test_latency_is_on_the_order_of_beacon_periods_per_hop(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(PsmSuite, CHAIN, [QUERY], duration=15.0)
        assert deliveries
        latency = mean_latency(deliveries, QUERY)
        # Three hops, each deferring to the next beacon interval (0.2 s).
        assert latency > 0.2

    def test_idle_intervals_sleep_after_atim_window(self) -> None:
        # With a slow query (period 2 s), many beacon intervals carry no
        # traffic, so the duty cycle stays far below always-on.
        slow = QuerySpec(query_id=1, period=2.0, start_time=1.0)
        sim, network, tree, suite, deliveries = run_baseline(PsmSuite, CHAIN, [slow], duration=15.0)
        assert deliveries
        average = sum(duty(network, n) for n in tree.nodes) / len(tree.nodes)
        assert average < 0.5


class TestSpan:
    def test_config_validation(self) -> None:
        with pytest.raises(ValueError):
            SpanConfig(announcement_interval=0.0)

    def test_backbone_is_interior_nodes(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SpanSuite, TREE, [QUERY])
        assert suite.name == "SPAN"
        assert set(suite.coordinators) == set(tree.interior_nodes)
        assert set(suite.leaf_nodes) == set(tree.leaves)

    def test_backbone_nodes_never_sleep_leaves_do(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SpanSuite, TREE, [QUERY], duration=12.0)
        for node_id in tree.interior_nodes:
            assert duty(network, node_id) == pytest.approx(1.0)
        for node_id in tree.leaves:
            assert duty(network, node_id) < 0.3

    def test_low_latency_delivery(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SpanSuite, CHAIN, [QUERY], duration=12.0)
        assert len(deliveries) >= 8
        assert mean_latency(deliveries, QUERY) < 0.05

    def test_coordinator_announcements_sent(self) -> None:
        sim, network, tree, suite, deliveries = run_baseline(SpanSuite, TREE, [QUERY], duration=12.0)
        assert suite.coordinator_announcements > 0


class TestProtocolComparison:
    """Cross-protocol sanity checks matching the paper's qualitative story."""

    def test_span_has_highest_duty_cycle_ess_at_lowest(self) -> None:
        from repro.core.protocol import EssatProtocolSuite

        query = QuerySpec(query_id=1, period=1.0, start_time=1.0)
        averages = {}
        for name, cls, kwargs in (
            ("span", SpanSuite, {}),
            ("psm", PsmSuite, {}),
            ("sync", SyncSuite, {}),
        ):
            sim, network, tree, suite, deliveries = run_baseline(
                cls, CHAIN, [query], duration=15.0, **kwargs
            )
            averages[name] = sum(duty(network, n) for n in tree.nodes) / len(tree.nodes)

        sim = Simulator(seed=0)
        network = build_network(sim, CHAIN, power_profile=IDEAL)
        tree = build_routing_tree(CHAIN, root=0)
        suite = EssatProtocolSuite(sim, network, tree, shaper="dts")
        suite.register_query(query)
        sim.run(until=15.0)
        network.finalize()
        averages["dts-ss"] = sum(duty(network, n) for n in tree.nodes) / len(tree.nodes)

        assert averages["span"] > averages["psm"]
        assert averages["span"] > averages["dts-ss"]
        assert averages["dts-ss"] < averages["sync"]
        assert averages["dts-ss"] < averages["psm"]

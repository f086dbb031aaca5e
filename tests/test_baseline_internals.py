"""Unit tests of baseline-protocol internals (schedules and send policies)."""

from __future__ import annotations

import pytest

from repro.baselines.psm import PsmConfig, PsmPowerManager, PsmSendPolicy
from repro.baselines.sync import SyncConfig, SyncPowerManager
from repro.net.node import build_network
from repro.net.packet import AtimPacket
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.radio.energy import IDEAL
from repro.radio.states import RadioState
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator

PAIR = Topology.line(2, spacing=50.0, comm_range=100.0)


def build_pair(seed: int = 0):
    sim = Simulator(seed=seed)
    network = build_network(sim, PAIR, power_profile=IDEAL)
    tree = build_routing_tree(PAIR, root=0)
    return sim, network, tree


class TestSyncPowerManager:
    def test_radio_follows_configured_windows(self) -> None:
        sim, network, tree = build_pair()
        config = SyncConfig(period=0.2, duty_cycle=0.25)
        SyncPowerManager(sim, network.node(0), config)
        # Mid active window: awake; mid sleep window: asleep.
        sim.run(until=0.02)
        assert network.node(0).radio.is_awake
        sim.run(until=0.1)
        assert network.node(0).radio.is_asleep
        sim.run(until=0.21)
        assert network.node(0).radio.is_awake

    def test_long_run_duty_cycle_matches_configuration(self) -> None:
        sim, network, tree = build_pair()
        config = SyncConfig(period=0.2, duty_cycle=0.3)
        SyncPowerManager(sim, network.node(0), config)
        sim.run(until=20.0)
        network.node(0).radio.finalize()
        assert network.node(0).radio.tracker.duty_cycle() == pytest.approx(0.3, abs=0.03)


class TestPsmSendPolicy:
    def test_send_deferred_to_next_atim_window_end(self) -> None:
        sim, network, tree = build_pair()
        config = PsmConfig(beacon_period=0.2, atim_window=0.025)
        manager = PsmPowerManager(sim, network.node(1), config)
        policy = PsmSendPolicy(config, manager)
        policy.query_registered(
            QuerySpec(query_id=1, period=1.0),
            node_id=1,
            tree=tree,
            participating_children=[],
            is_source=True,
        )
        # Ready mid-interval: deferred to the end of the next ATIM window.
        send_at = policy.send_time(1, 0, ready_time=0.31)
        assert send_at == pytest.approx(0.4 + 0.025)
        # Ready exactly on a beacon boundary: sent within that interval.
        assert policy.send_time(1, 1, ready_time=0.4) == pytest.approx(0.4 + 0.025)

    def test_buffered_traffic_is_announced_at_the_beacon(self) -> None:
        sim, network, tree = build_pair()
        config = PsmConfig()
        manager = PsmPowerManager(sim, network.node(1), config)
        policy = PsmSendPolicy(config, manager)
        policy.query_registered(
            QuerySpec(query_id=1, period=1.0),
            node_id=1,
            tree=tree,
            participating_children=[],
            is_source=True,
        )
        policy.send_time(1, 0, ready_time=0.05)
        sim.run(until=0.21)
        assert manager.atims_sent == 1

    def test_atim_reception_keeps_node_awake_for_the_data_phase(self) -> None:
        sim, network, tree = build_pair()
        config = PsmConfig()
        manager = PsmPowerManager(sim, network.node(0), config)
        policy = PsmSendPolicy(config, manager)
        # Without traffic the node sleeps right after the ATIM window...
        sim.run(until=config.atim_window + 0.01)
        assert network.node(0).radio.is_asleep
        # ...but an ATIM heard in the next window keeps it up.
        sim.schedule_at(config.beacon_period + 0.005, policy.control_received,
                        AtimPacket(src=1, dst=0))
        sim.run(until=config.beacon_period + config.atim_window + 0.02)
        assert network.node(0).radio.is_awake
        # And after the advertisement window it goes back to sleep.
        sim.run(until=config.beacon_period + config.data_phase_end_offset + 0.05)
        assert network.node(0).radio.is_asleep


class TestEssatChildFailurePath:
    def test_child_declared_failed_after_repeated_silence(self) -> None:
        """The parent drops a dead child's dependency and resumes sleeping."""
        from repro.core.protocol import EssatProtocolSuite

        star = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim = Simulator(seed=4)
        network = build_network(sim, star, power_profile=IDEAL)
        tree = build_routing_tree(star, root=0)
        deliveries = []
        suite = EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper="dts",
            on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, t)),
        )
        suite.register_query(QuerySpec(query_id=1, period=1.0, start_time=1.0))
        # Leaf 2 goes silent immediately (its application dies).
        suite.node(2).service.shutdown()
        sim.run(until=15.0)
        network.finalize()
        root_shaper = suite.node(0).shaper
        assert root_shaper.stats.children_declared_failed >= 1
        # After dropping the dependency the root no longer waits for node 2,
        # so late-period deliveries complete promptly.
        late = [entry for entry in deliveries if entry[2] > 8.0]
        assert late
        for _, k, t in late:
            assert t - (1.0 + k * 1.0) < 0.5
        # And the root's duty cycle stays low because it is not stuck
        # listening for the dead child every period.
        assert network.node(0).radio.tracker.duty_cycle() < 0.6

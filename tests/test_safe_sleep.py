"""Unit tests for the Safe Sleep scheduler."""

from __future__ import annotations

import pytest

from repro.core.safe_sleep import SafeSleep
from repro.core.timing import TimingTable
from repro.mac.base import MacConfig
from repro.net.node import build_network
from repro.net.topology import Topology
from repro.radio.energy import IDEAL, MICA2_TYPICAL
from repro.radio.states import RadioState
from repro.sim.engine import Simulator


def make_node_with_safe_sleep(profile=IDEAL, break_even_time=None, setup_until=0.0, seed=0):
    """A single-node network with a Safe Sleep instance wired to a fresh table."""
    sim = Simulator(seed=seed)
    topo = Topology.from_positions([(0.0, 0.0), (50.0, 0.0)], comm_range=100.0)
    network = build_network(sim, topo, power_profile=profile)
    node = network.node(0)
    table = TimingTable()
    ss = SafeSleep(
        sim,
        node.radio,
        node.mac,
        table,
        break_even_time=break_even_time,
        setup_until=setup_until,
    )
    return sim, network, node, table, ss


class TestSleepDecision:
    def test_sleeps_until_next_expectation(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep()
        table.set_next_receive(1, child=1, time=2.0)
        sim.run(until=1.0)
        assert node.radio.is_asleep
        sim.run(until=3.0)
        assert node.radio.is_awake
        node.radio.finalize()
        # Asleep from ~0 to 2.0 out of 3.0 observed seconds.
        assert node.radio.tracker.sleep_time() == pytest.approx(2.0, abs=0.01)
        assert ss.stats.sleeps == 1

    def test_wakes_exactly_at_expectation_with_transition_time(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep(profile=MICA2_TYPICAL)
        table.set_next_receive(1, child=1, time=1.0)
        sim.run(until=0.5)
        assert node.radio.is_asleep
        sim.run(until=1.0)
        # The radio must be awake (not still transitioning) at the expected time.
        assert node.radio.state is RadioState.IDLE

    def test_does_not_sleep_for_interval_below_break_even(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep(break_even_time=0.5)
        table.set_next_receive(1, child=1, time=0.3)
        sim.run(until=0.2)
        assert node.radio.is_awake
        assert ss.stats.kept_awake_below_break_even >= 1
        assert ss.stats.sleeps == 0

    def test_sleeps_when_interval_exceeds_break_even(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep(break_even_time=0.5)
        table.set_next_receive(1, child=1, time=1.0)
        sim.run(until=0.2)
        assert node.radio.is_asleep

    def test_stays_awake_with_no_expectations(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep()
        sim.run(until=1.0)
        assert node.radio.is_awake
        assert ss.stats.sleeps == 0

    def test_stays_awake_when_expectation_is_due(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep()
        table.set_next_receive(1, child=1, time=0.0)
        sim.run(until=1.0)
        assert node.radio.is_awake
        assert ss.stats.kept_awake_expectation_due >= 1

    def test_stays_awake_during_setup_slot(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep(setup_until=1.0)
        table.set_next_receive(1, child=1, time=5.0)
        sim.run(until=0.5)
        assert node.radio.is_awake
        assert ss.stats.kept_awake_setup_slot >= 1
        sim.run(until=2.0)
        assert node.radio.is_asleep

    def test_does_not_sleep_while_mac_has_pending_frame(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep()
        # Give the MAC a frame destined to a sleeping neighbour so it stays
        # busy retrying while the table says the node is otherwise free.
        from repro.net.packet import DataReportPacket

        network.node(1).radio.sleep()
        node.mac.send(DataReportPacket(src=0, dst=1, query_id=1))
        table.set_next_receive(1, child=1, time=5.0)
        sim.run(until=0.001)
        assert node.radio.is_awake
        assert ss.stats.kept_awake_busy_mac >= 1

    def test_sleep_is_re_evaluated_after_mac_drains(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep()
        from repro.net.packet import DataReportPacket

        node.mac.send(DataReportPacket(src=0, dst=1, query_id=1))
        table.set_next_receive(1, child=1, time=5.0)
        sim.run(until=1.0)
        # Once the frame (and its ACK handshake) completes the node sleeps.
        assert node.radio.is_asleep

    def test_disabled_safe_sleep_never_sleeps(self) -> None:
        sim, network, node, table, _ = make_node_with_safe_sleep()
        ss_disabled = SafeSleep(sim, network.node(1).radio, network.node(1).mac, table)
        ss_disabled.enabled = False
        table.set_next_receive(1, child=0, time=5.0)
        sim.run(until=1.0)
        assert network.node(1).radio.is_awake
        assert ss_disabled.stats.sleeps == 0

    def test_break_even_default_comes_from_radio_profile(self) -> None:
        sim, network, node, table, ss = make_node_with_safe_sleep(profile=MICA2_TYPICAL)
        assert ss.break_even_time == pytest.approx(0.0025)

    def test_receiver_acknowledgement_not_lost_to_sleep(self) -> None:
        """A node that just received a frame sends its ACK before sleeping."""
        sim, network, node, table, ss = make_node_with_safe_sleep()
        from repro.net.packet import DataReportPacket

        # Node 0 is the receiver under Safe Sleep with a far-future expectation;
        # node 1 sends it a data report at t = 0.1.
        table.set_next_receive(1, child=1, time=0.1)
        done = []
        network.node(1).mac.set_send_done_callback(lambda packet, ok: done.append(ok))
        sim.schedule_at(0.1, network.node(1).mac.send, DataReportPacket(src=1, dst=0, query_id=1))
        sim.run(until=1.0)
        # The sender saw a successful (acknowledged) transfer on the first try.
        assert done == [True]
        assert network.node(1).mac.stats.retransmissions == 0

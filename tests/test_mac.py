"""Tests for the CSMA/CA MAC layer."""

from __future__ import annotations

import pytest

from repro.mac.base import MacConfig
from repro.mac.queue import TransmitQueue
from repro.net.addresses import BROADCAST
from repro.net.loss import ScriptedLoss, UniformLoss
from repro.net.node import Network, build_network
from repro.net.packet import DataReportPacket, Packet
from repro.net.topology import Topology
from repro.radio.energy import IDEAL
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _two_node_network(seed: int = 0, loss_model=None, mac_config=None) -> tuple[Simulator, Network]:
    sim = Simulator(seed=seed)
    topo = Topology.line(2, spacing=50.0, comm_range=100.0)
    network = build_network(
        sim, topo, power_profile=IDEAL, loss_model=loss_model, mac_config=mac_config
    )
    return sim, network


class TestTransmitQueue:
    def test_fifo_order(self) -> None:
        queue = TransmitQueue(capacity=3)
        packets = [Packet(src=0, dst=1) for _ in range(3)]
        for packet in packets:
            assert queue.push(packet)
        assert [queue.pop() for _ in range(3)] == packets

    def test_overflow_drops_and_counts(self) -> None:
        queue = TransmitQueue(capacity=1)
        assert queue.push(Packet(src=0, dst=1))
        assert not queue.push(Packet(src=0, dst=1))
        assert queue.dropped_overflow == 1

    def test_peek_and_len(self) -> None:
        queue = TransmitQueue()
        assert queue.peek() is None
        assert queue.pop() is None
        packet = Packet(src=0, dst=1)
        queue.push(packet)
        assert queue.peek() is packet
        assert len(queue) == 1
        queue.clear()
        assert len(queue) == 0

    def test_capacity_validation(self) -> None:
        with pytest.raises(ValueError):
            TransmitQueue(capacity=0)

    def test_high_watermark(self) -> None:
        queue = TransmitQueue()
        queue.push(Packet(src=0, dst=1))
        queue.push(Packet(src=0, dst=1))
        queue.pop()
        assert queue.high_watermark == 2


class TestUnicast:
    def test_unicast_delivery_with_ack(self) -> None:
        sim, network = _two_node_network()
        received = []
        done = []
        network.node(1).mac.set_receive_callback(received.append)
        network.node(0).mac.set_send_done_callback(lambda packet, ok: done.append(ok))
        packet = DataReportPacket(src=0, dst=1, query_id=1)
        sim.schedule_at(0.0, network.node(0).mac.send, packet)
        sim.run(until=1.0)
        assert len(received) == 1
        assert received[0].packet_id == packet.packet_id
        assert done == [True]
        assert network.node(0).mac.stats.acks_received == 1
        assert network.node(1).mac.stats.acks_sent == 1

    def test_send_to_sleeping_node_retries_then_fails(self) -> None:
        sim, network = _two_node_network()
        done = []
        network.node(1).radio.sleep()
        network.node(0).mac.set_send_done_callback(lambda packet, ok: done.append(ok))
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
        sim.run(until=2.0)
        assert done == [False]
        assert network.node(0).mac.stats.send_failures == 1
        assert network.node(0).mac.stats.retransmissions >= 1

    def test_sender_holds_frame_while_own_radio_asleep(self) -> None:
        sim, network = _two_node_network()
        received = []
        network.node(1).mac.set_receive_callback(received.append)
        network.node(0).radio.sleep()
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
        sim.run(until=0.5)
        assert received == []
        # Waking the sender resumes the pending transmission.
        sim.schedule_at(0.5, network.node(0).radio.wake_up)
        sim.run(until=1.0)
        assert len(received) == 1

    def test_retransmission_recovers_from_single_loss(self) -> None:
        # Drop only the first data frame; the retransmission must get through.
        dropped = []

        def drop_first_data(src: int, dst: int, packet: Packet) -> bool:
            if isinstance(packet, DataReportPacket) and not dropped:
                dropped.append(packet.packet_id)
                return True
            return False

        sim, network = _two_node_network(loss_model=ScriptedLoss(drop_first_data))
        received = []
        done = []
        network.node(1).mac.set_receive_callback(received.append)
        network.node(0).mac.set_send_done_callback(lambda packet, ok: done.append(ok))
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
        sim.run(until=2.0)
        assert done == [True]
        assert len(received) == 1
        assert network.node(0).mac.stats.retransmissions >= 1

    def test_queue_overflow_reports_failure(self) -> None:
        config = MacConfig(queue_capacity=1)
        sim, network = _two_node_network(mac_config=config)
        done = []
        network.node(0).mac.set_send_done_callback(lambda packet, ok: done.append(ok))

        def send_three() -> None:
            mac = network.node(0).mac
            mac.send(DataReportPacket(src=0, dst=1))
            mac.send(DataReportPacket(src=0, dst=1))
            mac.send(DataReportPacket(src=0, dst=1))

        sim.schedule_at(0.0, send_three)
        sim.run(until=2.0)
        assert done.count(False) >= 1
        assert network.node(0).mac.stats.queue_drops >= 1

    def test_access_delay_recorded(self) -> None:
        sim, network = _two_node_network()
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
        sim.run(until=1.0)
        stats = network.node(0).mac.stats
        assert stats.average_access_delay > 0.0
        assert stats.completed_transfers == 1

    def test_without_acks_send_completes_after_airtime(self) -> None:
        config = MacConfig(use_acks=False)
        sim, network = _two_node_network(mac_config=config)
        received = []
        done = []
        network.node(1).mac.set_receive_callback(received.append)
        network.node(0).mac.set_send_done_callback(lambda packet, ok: done.append(ok))
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
        sim.run(until=1.0)
        assert done == [True]
        assert len(received) == 1
        assert network.node(1).mac.stats.acks_sent == 0


class TestBroadcast:
    def test_broadcast_reaches_all_neighbors_without_acks(self) -> None:
        sim = Simulator(seed=0)
        topo = Topology.grid(rows=1, cols=3, spacing=50.0, comm_range=60.0)
        network = build_network(sim, topo, power_profile=IDEAL)
        received = {node_id: [] for node_id in network.node_ids}
        for node_id in network.node_ids:
            network.node(node_id).mac.set_receive_callback(received[node_id].append)
        packet = Packet(src=1, dst=BROADCAST, size_bytes=20)
        sim.schedule_at(0.0, network.node(1).mac.send, packet)
        sim.run(until=1.0)
        assert len(received[0]) == 1
        assert len(received[2]) == 1
        assert received[1] == []
        assert network.node(1).mac.stats.broadcasts_sent == 1
        # No ACKs for broadcast frames.
        assert network.node(0).mac.stats.acks_sent == 0


class TestContention:
    def test_two_senders_to_common_receiver_both_eventually_delivered(self) -> None:
        sim = Simulator(seed=3)
        # 0 and 2 both in range of 1 and of each other (no hidden terminal).
        topo = Topology.from_positions([(0, 0), (50, 0), (100, 0)], comm_range=120.0)
        network = build_network(sim, topo, power_profile=IDEAL)
        received = []
        network.node(1).mac.set_receive_callback(received.append)
        sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1, query_id=1))
        sim.schedule_at(0.0, network.node(2).mac.send, DataReportPacket(src=2, dst=1, query_id=2))
        sim.run(until=2.0)
        assert len(received) == 2
        assert {p.src for p in received} == {0, 2}

    def test_contention_produces_jitter_across_seeds(self) -> None:
        """One-hop delay varies across seeds when two senders contend."""
        delays = set()
        for seed in range(6):
            sim = Simulator(seed=seed)
            topo = Topology.from_positions([(0, 0), (50, 0), (100, 0)], comm_range=120.0)
            network = build_network(sim, topo, power_profile=IDEAL)
            arrivals = []
            network.node(1).mac.set_receive_callback(
                lambda packet: arrivals.append(sim.now)
            )
            sim.schedule_at(0.0, network.node(0).mac.send, DataReportPacket(src=0, dst=1))
            sim.schedule_at(0.0, network.node(2).mac.send, DataReportPacket(src=2, dst=1))
            sim.run(until=2.0)
            delays.add(tuple(round(a, 7) for a in arrivals))
        assert len(delays) > 1

    def test_many_senders_all_frames_delivered(self) -> None:
        sim = Simulator(seed=1)
        positions = [(float(i * 10), 0.0) for i in range(6)]
        topo = Topology.from_positions(positions, comm_range=100.0)
        network = build_network(sim, topo, power_profile=IDEAL)
        received = []
        network.node(0).mac.set_receive_callback(received.append)
        for sender in range(1, 6):
            sim.schedule_at(0.0, network.node(sender).mac.send, DataReportPacket(src=sender, dst=0))
        sim.run(until=5.0)
        assert len(received) == 5


class TestMacConfig:
    def test_frame_airtime(self) -> None:
        config = MacConfig(bandwidth_bps=1e6, header_bytes=0)
        assert config.frame_airtime(52) == pytest.approx(52 * 8 / 1e6)

    def test_frame_airtime_includes_header(self) -> None:
        config = MacConfig(bandwidth_bps=1e6, header_bytes=8)
        assert config.frame_airtime(52) == pytest.approx(60 * 8 / 1e6)

    def test_pending_counters(self) -> None:
        sim, network = _two_node_network()
        mac = network.node(0).mac
        assert not mac.has_pending
        mac.send(DataReportPacket(src=0, dst=1))
        assert mac.has_pending
        assert mac.pending_count == 1
        sim.run(until=1.0)
        assert not mac.has_pending

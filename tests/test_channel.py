"""Tests for the wireless channel: delivery, collisions, sleep misses, loss models."""

from __future__ import annotations

import pytest

from repro.net.channel import Transmission, WirelessChannel
from repro.net.loss import NoLoss, ScriptedLoss, UniformLoss
from repro.net.packet import Packet
from repro.net.topology import Topology
from repro.radio.energy import IDEAL
from repro.radio.radio import Radio
from repro.radio.states import RadioState
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def _build_channel(topology: Topology, seed: int = 0):
    """Build a channel with one radio per node and record deliveries per node."""
    sim = Simulator(seed=seed)
    channel = WirelessChannel(sim, topology)
    radios = {}
    inboxes = {node: [] for node in topology.node_ids}

    for node_id in topology.node_ids:
        radio = Radio(sim, node_id, IDEAL)
        radios[node_id] = radio
        channel.register(
            node_id,
            radio,
            lambda packet, start, node=node_id: inboxes[node].append(packet),
        )
    return sim, channel, radios, inboxes


class TestDelivery:
    def test_unicast_delivered_to_all_awake_neighbors(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        packet = Packet(src=1, dst=2, size_bytes=52)
        sim.schedule_at(0.0, channel.transmit, 1, packet, 0.001)
        sim.run()
        # Both neighbours of node 1 hear the frame; addressing is the MAC's job.
        assert len(inboxes[0]) == 1
        assert len(inboxes[2]) == 1
        assert inboxes[1] == []
        assert channel.stats.deliveries == 2

    def test_out_of_range_node_does_not_receive(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=2), 0.001)
        sim.run()
        assert inboxes[2] == []
        assert len(inboxes[1]) == 1

    def test_sleeping_receiver_misses_frame(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        radios[1].sleep()
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        assert inboxes[1] == []
        assert channel.stats.missed_asleep == 1

    def test_receiver_radio_goes_through_rx_state(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.01)
        sim.run(until=0.005)
        assert radios[1].state is RadioState.RX
        sim.run(until=0.02)
        assert radios[1].state is RadioState.IDLE
        radios[1].finalize()
        assert radios[1].tracker.time_in_state(RadioState.RX) == pytest.approx(0.01)

    def test_transmitter_cannot_receive_its_own_frame(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        assert inboxes[0] == []

    def test_transmit_from_unregistered_node_is_discarded(self) -> None:
        # A node that failed (was unregistered) cannot put energy on the air;
        # its transmissions vanish instead of crashing the simulation.
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        assert channel.transmit(99, Packet(src=99, dst=0), 0.001) is None
        assert channel.stats.dropped_from_failed_sender == 1
        sim.run()
        assert inboxes[0] == []

    def test_failed_node_mid_operation_does_not_crash_senders(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        channel.unregister(0)
        # Node 0 (now failed) still tries to transmit; nothing happens.
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        assert inboxes[1] == []

    def test_nonpositive_duration_raises(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        with pytest.raises(ValueError):
            channel.transmit(0, Packet(src=0, dst=1), 0.0)

    def test_unregistered_receiver_is_skipped(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        channel.unregister(1)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        assert inboxes[1] == []


class TestCollisions:
    def test_overlapping_transmissions_collide_at_common_receiver(self) -> None:
        # 0 and 2 are both in range of 1 but not of each other (hidden terminals).
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.002)
        sim.schedule_at(0.001, channel.transmit, 2, Packet(src=2, dst=1), 0.002)
        sim.run()
        assert inboxes[1] == []
        assert channel.stats.collisions >= 1

    def test_non_overlapping_transmissions_both_delivered(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.schedule_at(0.005, channel.transmit, 2, Packet(src=2, dst=1), 0.001)
        sim.run()
        assert len(inboxes[1]) == 2
        assert channel.stats.collisions == 0


class TestCollisionWindow:
    """Regression tests for the collision-window bugfix.

    Pre-fix, a receiver locked onto a corrupted frame was unlocked and
    ``end_rx()``-ed as soon as the *first* overlapping frame ended, even
    though the second frame was still on the air -- so the node could lock
    onto a third frame mid-collision and its radio under-counted receive
    time.
    """

    @staticmethod
    def _star():
        # Receiver 0 at the centre; senders 1, 2, 3 all in range of 0 but
        # pairwise out of range (hidden terminals).
        topo = Topology.from_positions(
            [(0.0, 0.0), (100.0, 0.0), (-100.0, 0.0), (0.0, 100.0)],
            comm_range=120.0,
        )
        return _build_channel(topo)

    def test_receiver_stays_locked_until_all_overlapping_frames_end(self) -> None:
        sim, channel, radios, inboxes = self._star()
        sim.schedule_at(0.000, channel.transmit, 1, Packet(src=1, dst=0), 0.010)  # A
        sim.schedule_at(0.002, channel.transmit, 2, Packet(src=2, dst=0), 0.010)  # B
        # A ends at 0.010 while B is still on the air until 0.012; the
        # receiver's radio must stay in RX for the whole collision.
        sim.run(until=0.011)
        assert radios[0].state is RadioState.RX
        sim.run(until=0.013)
        assert radios[0].state is RadioState.IDLE
        assert inboxes[0] == []
        radios[0].finalize()
        # Pre-fix: RX ended with frame A at 0.010.
        assert radios[0].tracker.time_in_state(RadioState.RX) == pytest.approx(0.012)

    def test_receiver_cannot_lock_a_third_frame_mid_collision(self) -> None:
        sim, channel, radios, inboxes = self._star()
        sim.schedule_at(0.000, channel.transmit, 1, Packet(src=1, dst=0), 0.010)  # A
        sim.schedule_at(0.002, channel.transmit, 2, Packet(src=2, dst=0), 0.010)  # B
        # C starts after A ended but while B is still in the air.  Pre-fix
        # the receiver had (wrongly) gone idle at A's end and locked onto C
        # intact, delivering a frame born into a collision.
        sim.schedule_at(0.011, channel.transmit, 3, Packet(src=3, dst=0), 0.010)  # C
        sim.run()
        assert inboxes[0] == []
        radios[0].finalize()
        # Busy from first lock (0.000) until the frames overlapping the
        # corrupted reception cleared the air (B's end, 0.012); C, which
        # started mid-drain, is an ordinary busy-radio miss and does not
        # extend the lock (no cascading RX livelock).
        assert radios[0].tracker.time_in_state(RadioState.RX) == pytest.approx(0.012)


class TestUnregisterAccounting:
    """Regression tests for the failure-injection accounting bugfix.

    Pre-fix, ``unregister`` dropped the dead node from ``_locked`` but left
    it in other transmissions' ``receivers`` maps and never closed out its
    radio RX state, so churn runs leaked phantom receiver entries and kept
    charging RX energy to a dead radio.
    """

    def test_unregister_mid_reception_closes_rx_accounting(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        transmission = {}

        def start_tx():
            transmission["tx"] = channel.transmit(0, Packet(src=0, dst=1), 0.010)

        sim.schedule_at(0.0, start_tx)
        sim.schedule_at(0.005, channel.unregister, 1)
        sim.run(until=0.005)
        # The dead node's reception ends at the failure instant...
        assert radios[1].state is RadioState.IDLE
        # ...and it is scrubbed from the in-flight frame's receiver map.
        assert 1 not in transmission["tx"].receivers
        sim.run()
        assert inboxes[1] == []
        radios[1].finalize()
        # Pre-fix the radio sat in RX from 0.0 until the end of the run.
        assert radios[1].tracker.time_in_state(RadioState.RX) == pytest.approx(0.005)

    def test_failure_injection_path_closes_rx_accounting(self) -> None:
        # Same bug exercised through the PR 2 failure-injection machinery:
        # a scheduled FailureSchedule failure routed through
        # Network.fail_node while the victim is mid-reception.
        from repro.mac.base import MacConfig
        from repro.net.node import build_network
        from repro.net.topology import FailureSchedule
        from repro.sim.rng import RandomStreams

        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim = Simulator(seed=0)
        network = build_network(sim, topo, power_profile=IDEAL, mac_config=MacConfig())
        victim = 1
        schedule = FailureSchedule(explicit=((0.005, victim),))
        events = schedule.materialize([victim], RandomStreams(0).get("scenario.failures"))
        for time, node_id in events:
            sim.schedule_at(time, network.fail_node, node_id)
        # Put a frame on the air directly so the victim is locked when the
        # scheduled failure fires.
        sim.schedule_at(0.0, network.channel.transmit, 0, Packet(src=0, dst=1), 0.010)
        sim.run(until=1.0)
        network.finalize()
        assert network.nodes[victim].failed
        victim_radio = network.nodes[victim].radio
        # Pre-fix: the dead radio stayed in RX until the end of the run and
        # its tracker charged a full second of receive energy.
        assert victim_radio.tracker.time_in_state(RadioState.RX) == pytest.approx(0.005)

    def test_unregister_mid_transmission_closes_tx_accounting(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.010)
        sim.schedule_at(0.005, channel.unregister, 0)
        sim.run(until=1.0)
        # The dead sender's TX accounting ends at the failure instant
        # instead of charging full TX power for the rest of the run.
        assert radios[0].state is not RadioState.TX
        radios[0].finalize()
        assert radios[0].tracker.time_in_state(RadioState.TX) == pytest.approx(0.005)

    def test_dead_senders_half_transmitted_frame_is_not_delivered(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.010)
        sim.schedule_at(0.005, channel.unregister, 0)
        sim.run()
        # A truncated frame cannot be decoded: the receiver unlocks at the
        # frame's scheduled end but receives nothing.
        assert inboxes[1] == []
        assert radios[1].state is RadioState.IDLE
        assert channel.stats.deliveries == 0

    def test_unregister_scrubs_phantom_receivers_from_all_transmissions(self) -> None:
        # Receiver in range of two hidden senders: both in-flight frames
        # must drop the dead node from their receiver maps.
        topo = Topology.from_positions(
            [(0.0, 0.0), (100.0, 0.0), (-100.0, 0.0)], comm_range=120.0
        )
        sim, channel, radios, inboxes = _build_channel(topo)
        frames = {}

        def start(sender, key, duration):
            frames[key] = channel.transmit(sender, Packet(src=sender, dst=0), duration)

        sim.schedule_at(0.000, start, 1, "a", 0.010)
        sim.schedule_at(0.002, start, 2, "b", 0.010)
        sim.schedule_at(0.004, channel.unregister, 0)
        sim.run()
        assert 0 not in frames["a"].receivers
        assert 0 not in frames["b"].receivers


class TestFanoutInvalidation:
    """The per-sender fan-out table must follow registration.

    ``transmit`` walks a cached ``(covered ids, covering lists, attached
    (id, radio) pairs)`` entry per sender.  Each test builds the sender's
    entry with a first frame, changes what it caches, and sends again.
    """

    def test_node_registered_after_neighbors_first_frame_receives(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim = Simulator(seed=0)
        channel = WirelessChannel(sim, topo)
        radios = {node: Radio(sim, node, IDEAL) for node in topo.node_ids}
        inbox = []
        channel.register(0, radios[0], lambda packet, start: None)
        sim.schedule_at(0.000, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.schedule_at(
            0.002, channel.register, 1, radios[1], lambda packet, start: inbox.append(packet)
        )
        sim.schedule_at(0.003, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        # A stale entry would still list no attached neighbour for node 0.
        assert len(inbox) == 1
        assert channel.stats.deliveries == 1

    def test_unregistered_neighbor_is_not_locked_by_later_frames(self) -> None:
        topo = Topology.line(3, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        frames = {}

        def start(key):
            frames[key] = channel.transmit(0, Packet(src=0, dst=1), 0.001)

        sim.schedule_at(0.000, start, "before")
        sim.schedule_at(0.002, channel.unregister, 1)
        sim.schedule_at(0.003, start, "after")
        sim.run()
        # A stale entry would lock the dead radio into RX for good.
        assert 1 not in frames["after"].receivers
        assert radios[1].state is RadioState.IDLE
        assert radios[1]._rx_lock is None
        radios[1].finalize()
        assert radios[1].tracker.time_in_state(RadioState.RX) == pytest.approx(0.001)
        assert len(inboxes[1]) == 1
        assert len(inboxes[2]) == 2


class TestCarrierSense:
    def test_transmissions_with_identical_fields_stay_distinct(self) -> None:
        packet = Packet(src=0, dst=1)
        first = Transmission(sender=0, packet=packet, start=0.0, end=0.01)
        second = Transmission(sender=0, packet=packet, start=0.0, end=0.01)
        assert first != second
        assert second not in [first]
        covering = [first, second]
        covering.remove(second)
        assert len(covering) == 1
        assert covering[0] is first

    def test_is_busy_when_neighbor_transmits(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        assert not channel.is_busy(1)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.01)
        sim.run(until=0.005)
        assert channel.is_busy(1)
        assert channel.is_busy(0)
        # Node 2 is out of range of node 0 and senses an idle medium.
        assert not channel.is_busy(2)
        sim.run(until=0.02)
        assert not channel.is_busy(1)

    def test_time_until_idle(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.01)
        sim.run(until=0.004)
        assert channel.time_until_idle(1) == pytest.approx(0.006)
        assert channel.time_until_idle(0) == pytest.approx(0.006)


class TestLossModels:
    def test_no_loss_never_drops(self) -> None:
        model = NoLoss()
        assert not model.should_drop(0, 1, Packet(src=0, dst=1))

    def test_uniform_loss_probability_bounds(self) -> None:
        with pytest.raises(ValueError):
            UniformLoss(1.5)
        always = UniformLoss(1.0, streams=RandomStreams(0))
        assert always.should_drop(0, 1, Packet(src=0, dst=1))
        never = UniformLoss(0.0, streams=RandomStreams(0))
        assert not never.should_drop(0, 1, Packet(src=0, dst=1))

    def test_scripted_loss_drops_selected_frames(self) -> None:
        model = ScriptedLoss(lambda src, dst, packet: packet.packet_id % 2 == 0)
        even = Packet(src=0, dst=1)
        odd = Packet(src=0, dst=1)
        results = {packet.packet_id % 2: model.should_drop(0, 1, packet) for packet in (even, odd)}
        assert results[0] is True
        assert results[1] is False

    def test_channel_applies_loss_model(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim = Simulator(seed=0)
        channel = WirelessChannel(sim, topo, loss_model=UniformLoss(1.0, streams=RandomStreams(0)))
        inbox = []
        radio0 = Radio(sim, 0, IDEAL)
        radio1 = Radio(sim, 1, IDEAL)
        channel.register(0, radio0, lambda p, t: None)
        channel.register(1, radio1, lambda p, t: inbox.append(p))
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1), 0.001)
        sim.run()
        assert inbox == []
        assert channel.stats.dropped_by_loss_model == 1

    def test_stats_as_dict(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, channel, radios, inboxes = _build_channel(topo)
        sim.schedule_at(0.0, channel.transmit, 0, Packet(src=0, dst=1, size_bytes=52), 0.001)
        sim.run()
        stats = channel.stats.as_dict()
        assert stats["transmissions"] == 1
        assert stats["bytes_transmitted"] == 52

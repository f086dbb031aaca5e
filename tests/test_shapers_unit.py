"""Unit tests of the NTS/STS/DTS expected-time arithmetic (no network)."""

from __future__ import annotations

import pytest

from repro.core.dts import DynamicTrafficShaper
from repro.core.nts import NoTrafficShaping
from repro.core.sts import StaticTrafficShaper
from repro.core.timing import TimingTable
from repro.net.packet import DataReportPacket, PhaseRequestPacket
from repro.query.query import QuerySpec
from repro.routing.tree import RoutingTree
from repro.sim.engine import Simulator


def make_chain_tree(length: int = 4) -> RoutingTree:
    """Chain 0 <- 1 <- 2 <- ... so node ranks are length-1, ..., 1, 0."""
    return RoutingTree(root=0, parent={i: i - 1 for i in range(1, length)})


def register(shaper, query: QuerySpec, node_id: int, tree: RoutingTree) -> None:
    children = tree.children(node_id)
    shaper.query_registered(
        query,
        node_id=node_id,
        tree=tree,
        participating_children=children,
        is_source=tree.is_leaf(node_id),
    )


def report_packet(src: int, dst: int, query_id: int, k: int, sequence: int = 0, phase_update=None):
    return DataReportPacket(
        src=src, dst=dst, query_id=query_id, report_index=k, sequence=sequence,
        phase_update=phase_update,
    )


QUERY = QuerySpec(query_id=1, period=1.0, start_time=2.0)


class ForcedRetryCsmaStub:
    """A CSMA-shaped control sender for overhead-accounting tests.

    Mimics the two MAC behaviours the accounting must be robust to: a frame
    that is *accepted* but spends a long time in link-layer retries (the
    answer it solicits is delayed), and a frame *rejected* outright because
    the transmit queue is full (``send`` returns ``False``, exactly like
    :meth:`repro.mac.csma.CsmaMac.send`).
    """

    def __init__(self, reject_next: int = 0) -> None:
        self.sent: list = []
        self.reject_next = reject_next

    def send(self, packet) -> bool:
        if self.reject_next > 0:
            self.reject_next -= 1
            return False
        self.sent.append(packet)
        return True


class TestNts:
    def test_initial_expectations_equal_query_start(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        assert table.next_receive(1, 2) == pytest.approx(2.0)
        assert table.next_send(1) == pytest.approx(2.0)

    def test_root_has_no_send_expectation(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=0)
        register(shaper, QUERY, node_id=0, tree=make_chain_tree())
        assert table.next_send(1) is None
        assert table.next_receive(1, 1) == pytest.approx(2.0)

    def test_send_time_is_immediate(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        assert shaper.send_time(1, 0, ready_time=2.4) == pytest.approx(2.4)

    def test_receive_advances_to_next_period(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0))
        assert table.next_receive(1, 2) == pytest.approx(3.0)

    def test_send_completion_advances_to_next_period(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_sent(1, 0, submitted_at=2.1, completed_at=2.15, success=True)
        assert table.next_send(1) == pytest.approx(3.0)

    def test_timeout_follows_rank_formula(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)  # M = 3
        shaper = NoTrafficShaping(sim, table, node_id=1)  # rank 2
        register(shaper, QUERY, node_id=1, tree=tree)
        # t_TO(d) = (d + 1) * D / M with D = period = 1.0.
        assert shaper.collection_timeout(1, 0, period_start=2.0) == pytest.approx(2.0 + 3 * 1.0 / 3)

    def test_missing_children_roll_to_next_period(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.handle_missing_children(1, 0, missing={2}, period_start=2.0)
        assert table.next_receive(1, 2) == pytest.approx(3.0)
        assert table.next_send(1) == pytest.approx(3.0)

    def test_repeated_misses_trigger_failure_callback(self) -> None:
        sim, table = Simulator(), TimingTable()
        failures = []
        shaper = NoTrafficShaping(
            sim, table, node_id=1,
            on_child_failure=lambda q, c: failures.append((q, c)),
        )
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        for k in range(3):
            shaper.handle_missing_children(1, k, missing={2}, period_start=2.0 + k)
        assert failures == [(1, 2)]

    def test_reception_resets_miss_count(self) -> None:
        sim, table = Simulator(), TimingTable()
        failures = []
        shaper = NoTrafficShaping(
            sim, table, node_id=1,
            on_child_failure=lambda q, c: failures.append((q, c)),
        )
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.handle_missing_children(1, 0, missing={2}, period_start=2.0)
        shaper.handle_missing_children(1, 1, missing={2}, period_start=3.0)
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=0))
        shaper.handle_missing_children(1, 3, missing={2}, period_start=5.0)
        assert failures == []

    def test_child_removed_clears_expectation(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = NoTrafficShaping(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.child_removed(1, 2)
        assert table.next_receive(1, 2) is None


class TestSts:
    def test_local_deadline_is_deadline_over_max_rank(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(5)  # M = 4
        shaper = StaticTrafficShaper(sim, table, node_id=2)
        register(shaper, QUERY.with_deadline(0.8), node_id=2, tree=tree)
        assert shaper.local_deadline(1) == pytest.approx(0.2)

    def test_expected_times_follow_rank_schedule(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)  # ranks: node0=3, node1=2, node2=1, node3=0
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=tree)  # D = P = 1.0, l = 1/3
        l = 1.0 / 3.0
        # Node 1 (rank 2) sends at phi + k*P + 2*l and expects its child
        # (node 2, rank 1) at that child's send time phi + k*P + 1*l.
        assert shaper.expected_send_time(1, 0) == pytest.approx(2.0 + 2 * l)
        assert shaper.expected_receive_time(1, 2, 0) == pytest.approx(2.0 + l)
        assert table.next_send(1) == pytest.approx(2.0 + 2 * l)
        assert table.next_receive(1, 2) == pytest.approx(2.0 + l)

    def test_leaf_sends_at_period_start(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=3)  # rank 0 leaf
        register(shaper, QUERY, node_id=3, tree=tree)
        assert shaper.expected_send_time(1, 0) == pytest.approx(2.0)

    def test_early_report_buffered_until_expected_send(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=tree)
        expected = shaper.expected_send_time(1, 0)
        assert shaper.send_time(1, 0, ready_time=2.05) == pytest.approx(expected)
        assert shaper.stats.reports_buffered == 1

    def test_late_report_sent_immediately(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=tree)
        expected = shaper.expected_send_time(1, 0)
        late = expected + 0.25
        assert shaper.send_time(1, 0, ready_time=late) == pytest.approx(late)
        assert shaper.stats.reports_sent_late == 1

    def test_zero_local_deadline_degenerates_to_nts(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        tiny = QUERY.with_deadline(1e-12)
        register(shaper, tiny, node_id=1, tree=tree)
        # With l ~= 0 the schedule collapses to phi + k*P for every rank.
        assert shaper.expected_send_time(1, 0) == pytest.approx(2.0, abs=1e-9)
        assert shaper.expected_receive_time(1, 2, 0) == pytest.approx(2.0, abs=1e-9)

    def test_receive_and_send_advance_schedule(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=tree)
        l = 1.0 / 3.0
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0))
        assert table.next_receive(1, 2) == pytest.approx(3.0 + l)
        shaper.report_sent(1, 0, submitted_at=2.6, completed_at=2.7, success=True)
        assert table.next_send(1) == pytest.approx(3.0 + 2 * l)

    def test_timeout_is_expected_send_plus_local_deadline(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1, timeout_constant=0.05)
        register(shaper, QUERY, node_id=1, tree=tree)
        l = 1.0 / 3.0
        expected = shaper.expected_send_time(1, 0)
        assert shaper.collection_timeout(1, 0, period_start=2.0) == pytest.approx(
            expected + l - 0.05
        )

    def test_refresh_topology_recomputes_schedule(self) -> None:
        sim, table = Simulator(), TimingTable()
        tree = make_chain_tree(4)
        shaper = StaticTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=tree)
        before = shaper.expected_send_time(1, 0)
        # Failing the deepest node (a leaf: nothing to re-attach) shrinks node
        # 1's rank from 2 to 1 and M to 2.
        assert tree.repair(3, lambda node: ()) == ({}, [])
        shaper.refresh_topology(tree)
        after = shaper.expected_send_time(1, 1)
        assert shaper.local_deadline(1) == pytest.approx(0.5)
        assert after == pytest.approx(3.0 + 0.5)
        assert before != after


class TestDts:
    def test_initial_expectations_equal_query_start(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        assert shaper.expected_send_time(1) == pytest.approx(2.0)
        assert shaper.expected_receive_time(1, 2) == pytest.approx(2.0)
        assert table.next_send(1) == pytest.approx(2.0)

    def test_on_time_send_advances_by_period_without_phase_update(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        # Ready early: buffered until s(0) = 2.0.
        assert shaper.send_time(1, 0, ready_time=1.9) == pytest.approx(2.0)
        assert shaper.phase_update_for(1, 0, submit_time=2.0) is None
        shaper.report_sent(1, 0, submitted_at=2.0, completed_at=2.01, success=True)
        assert shaper.expected_send_time(1) == pytest.approx(3.0)
        assert shaper.stats.phase_shifts == 0

    def test_late_send_causes_phase_shift_and_piggyback(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        assert shaper.send_time(1, 0, ready_time=2.4) == pytest.approx(2.4)
        update = shaper.phase_update_for(1, 0, submit_time=2.4)
        assert update == pytest.approx(3.4)
        shaper.report_sent(1, 0, submitted_at=2.4, completed_at=2.45, success=True)
        assert shaper.expected_send_time(1) == pytest.approx(3.4)
        assert shaper.stats.phase_shifts == 1
        assert shaper.stats.phase_updates_piggybacked == 1

    def test_parent_uses_piggybacked_phase_update(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        packet = report_packet(2, 1, 1, k=0, sequence=0, phase_update=3.7)
        shaper.report_received(1, child=2, packet=packet)
        assert shaper.expected_receive_time(1, 2) == pytest.approx(3.7)
        assert table.next_receive(1, 2) == pytest.approx(3.7)

    def test_parent_advances_by_period_without_phase_update(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        assert shaper.expected_receive_time(1, 2) == pytest.approx(3.0)

    def test_sequence_gap_without_update_requests_phase(self) -> None:
        sim, table = Simulator(), TimingTable()
        sent_control = []
        shaper = DynamicTrafficShaper(
            sim, table, node_id=1, send_control=sent_control.append
        )
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        # Sequence jumps from 0 to 2: one report was lost.
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2))
        assert shaper.stats.sequence_gaps_detected == 1
        assert len(sent_control) == 1
        assert isinstance(sent_control[0], PhaseRequestPacket)
        assert sent_control[0].dst == 2

    def test_sequence_gap_with_piggybacked_update_needs_no_request(self) -> None:
        sim, table = Simulator(), TimingTable()
        sent_control = []
        shaper = DynamicTrafficShaper(sim, table, node_id=1, send_control=sent_control.append)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        shaper.report_received(
            1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2, phase_update=5.5)
        )
        assert sent_control == []
        assert shaper.expected_receive_time(1, 2) == pytest.approx(5.5)

    def test_phase_request_forces_piggyback_on_next_report(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=2)
        register(shaper, QUERY, node_id=2, tree=make_chain_tree())
        shaper.control_received(PhaseRequestPacket(src=1, dst=2, query_id=1))
        assert shaper.send_time(1, 0, ready_time=1.9) == pytest.approx(2.0)
        update = shaper.phase_update_for(1, 0, submit_time=2.0)
        assert update == pytest.approx(3.0)

    def test_missing_children_keep_stale_expectation(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.handle_missing_children(1, 0, missing={2}, period_start=2.0)
        # DTS does not advance the expectation for a silent child.
        assert table.next_receive(1, 2) == pytest.approx(2.0)

    def test_timeout_is_latest_child_expectation_plus_constant(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1, timeout_constant=0.2)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0, phase_update=3.3))
        assert shaper.collection_timeout(1, 1, period_start=3.0) == pytest.approx(3.5)

    def test_parent_changed_forces_phase_update(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=2)
        register(shaper, QUERY, node_id=2, tree=make_chain_tree())
        shaper.parent_changed()
        assert shaper.phase_update_for(1, 0, submit_time=2.0) == pytest.approx(3.0)

    def test_forced_retry_does_not_double_count_request_overhead(self) -> None:
        """Regression: one resynchronisation costs exactly one phase request.

        The stub models a CSMA MAC forced into retries: it accepts the
        request frame but takes several link-layer attempts, so the child's
        answer is delayed past further report receptions.  Before the fix,
        every gap detected while the answer was in flight issued (and
        counted the overhead of) a duplicate request.
        """
        sim, table = Simulator(), TimingTable()
        mac = ForcedRetryCsmaStub()
        shaper = DynamicTrafficShaper(sim, table, node_id=1, send_control=mac.send)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())

        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        # Two consecutive gaps while the (retried, still unanswered) request
        # is in flight: seq 0 -> 2 -> 4.
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2))
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=4, sequence=4))
        assert shaper.stats.sequence_gaps_detected == 2
        assert len(mac.sent) == 1, "one outstanding resync = one request on the air"
        assert shaper.stats.phase_updates_requested == 1
        assert shaper.stats.control_overhead_bytes == mac.sent[0].size_bytes

    def test_answered_request_clears_outstanding_state(self) -> None:
        sim, table = Simulator(), TimingTable()
        mac = ForcedRetryCsmaStub()
        shaper = DynamicTrafficShaper(sim, table, node_id=1, send_control=mac.send)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2))
        assert shaper.stats.phase_updates_requested == 1
        # The child's answer (a piggybacked update) arrives; a later loss may
        # legitimately be re-requested and re-counted.
        shaper.report_received(
            1, child=2, packet=report_packet(2, 1, 1, k=3, sequence=3, phase_update=6.0)
        )
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=5, sequence=5))
        assert shaper.stats.phase_updates_requested == 2
        assert len(mac.sent) == 2
        assert shaper.stats.control_overhead_bytes == sum(p.size_bytes for p in mac.sent)

    def test_unanswered_request_expires_after_one_period(self) -> None:
        """A lost request (or answer) must not disable resync forever.

        The outstanding-request entry expires after one query period: the
        next gap detected after that re-requests (and is counted again --
        it is a genuine new control transmission).
        """
        sim, table = Simulator(), TimingTable()
        mac = ForcedRetryCsmaStub()
        shaper = DynamicTrafficShaper(sim, table, node_id=1, send_control=mac.send)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2))
        assert len(mac.sent) == 1
        # More than one period passes with no answer: the request (or its
        # answer) was evidently lost on the air.
        sim.run(until=1.5)
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=4, sequence=4))
        assert len(mac.sent) == 2
        assert shaper.stats.phase_updates_requested == 2
        assert shaper.stats.control_overhead_bytes == sum(p.size_bytes for p in mac.sent)

    def test_rejected_request_is_not_counted_as_overhead(self) -> None:
        """A queue-overflow rejection never reaches the air: count nothing."""
        sim, table = Simulator(), TimingTable()
        mac = ForcedRetryCsmaStub(reject_next=1)
        shaper = DynamicTrafficShaper(sim, table, node_id=1, send_control=mac.send)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=0, sequence=0))
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=2, sequence=2))
        assert mac.sent == []
        assert shaper.stats.phase_updates_requested == 0
        assert shaper.stats.control_overhead_bytes == 0
        # The queue drained; the next detected gap retries and is counted once.
        shaper.report_received(1, child=2, packet=report_packet(2, 1, 1, k=4, sequence=4))
        assert len(mac.sent) == 1
        assert shaper.stats.phase_updates_requested == 1
        assert shaper.stats.control_overhead_bytes == mac.sent[0].size_bytes

    def test_overhead_accounting(self) -> None:
        sim, table = Simulator(), TimingTable()
        shaper = DynamicTrafficShaper(sim, table, node_id=1)
        register(shaper, QUERY, node_id=1, tree=make_chain_tree())
        # Ten on-time reports, one late one.
        for k in range(10):
            shaper.send_time(1, k, ready_time=0.0)
            shaper.phase_update_for(1, k, submit_time=shaper.expected_send_time(1))
            shaper.report_sent(1, k, submitted_at=0.0, completed_at=0.0, success=True)
        shaper.send_time(1, 10, ready_time=shaper.expected_send_time(1) + 0.5)
        shaper.phase_update_for(1, 10, submit_time=shaper.expected_send_time(1) + 0.5)
        assert shaper.stats.phase_updates_piggybacked == 1
        assert 0 < shaper.overhead_bits_per_report() < 32

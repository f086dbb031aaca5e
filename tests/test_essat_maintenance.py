"""Tests for ESSAT protocol maintenance under node failures (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.core.protocol import EssatProtocolSuite
from repro.net.loss import ScriptedLoss
from repro.net.node import build_network
from repro.net.packet import DataReportPacket
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator

# Chain 0 - 1 - 2 - 3 - 4 plus node 5 connected to both 0 and 2, so that
# node 1's failure can be repaired by re-parenting node 2 under node 5.
REPAIRABLE = Topology.from_positions(
    [(0, 0), (100, 0), (200, 0), (300, 0), (400, 0), (100, 60)], comm_range=125.0
)

# A hexagon of side 100 m: each node hears only its two ring neighbours.
HEXAGON = Topology.from_positions(
    [(100, 0), (50, 86.6), (-50, 86.6), (-100, 0), (50, -86.6), (-50, -86.6)],
    comm_range=120.0,
)

# A pentagon 0-1-2-5-4-0 of side 118 m plus node 3 hanging off node 2: the
# tree is 0 -> 1 -> 2 -> 3 and 0 -> 4 -> 5, and node 2 also hears node 5.
PENTAGON = Topology.from_positions(
    [(0, 100), (-95.1, 30.9), (-58.8, -80.9), (-117.6, -161.8), (95.1, 30.9), (58.8, -80.9)],
    comm_range=150.0,
)

QUERY = QuerySpec(query_id=1, period=1.0, start_time=1.0)


def build_suite(shaper: str, topology: Topology = REPAIRABLE, seed: int = 0, loss_model=None):
    sim = Simulator(seed=seed)
    network = build_network(sim, topology, power_profile=IDEAL, loss_model=loss_model)
    tree = build_routing_tree(topology, root=0)
    deliveries = []
    suite = EssatProtocolSuite(
        sim,
        network,
        tree,
        shaper=shaper,
        on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, report, t)),
    )
    return sim, network, tree, suite, deliveries


def fail_at(sim: Simulator, suite: EssatProtocolSuite, time: float, node: int) -> list:
    """Schedule ``suite.fail_node(node)``; the returned list receives its result."""
    results: list = []
    sim.schedule_at(time, lambda: results.append(suite.fail_node(node)))
    return results


class TestNodeFailureRecovery:
    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_data_keeps_flowing_after_interior_node_fails(self, shaper: str) -> None:
        sim, network, tree, suite, deliveries = build_suite(shaper)
        suite.register_query(QUERY)
        results = fail_at(sim, suite, 5.0, 1)
        sim.run(until=15.0)
        network.finalize()
        # Reports from the deep leaf (node 4) must still reach the root after
        # the failure: its path re-routes 4 -> 3 -> 2 -> 5 -> 0.
        late = [entry for entry in deliveries if entry[3] > 6.0]
        assert late, f"{shaper}: no deliveries after the failure"
        assert any(entry[2].contributing_sources >= 1 for entry in late)
        assert results == [({2: 5}, [])]

    def test_sts_reschedules_after_rank_change(self) -> None:
        sim, network, tree, suite, deliveries = build_suite("sts")
        suite.register_query(QUERY)
        adopter = suite.node(5).shaper
        # M = 4, so l = D / M = 0.25 s.  Before the failure node 5 is a leaf
        # (rank 0) and sends at each period start.
        assert adopter.expected_send_time(1, 4) == pytest.approx(QUERY.report_time(4))
        fail_at(sim, suite, 5.0, 1)
        sim.run(until=12.0)
        # Node 5 adopted node 2 (rank 2) and its rank grew to 3: both its own
        # send time and its expectation of the orphan follow the new ranks.
        for k in (6, 10):
            assert adopter.expected_send_time(1, k) == pytest.approx(QUERY.report_time(k) + 0.75)
            assert adopter.expected_receive_time(1, 2, k) == pytest.approx(
                QUERY.report_time(k) + 0.5
            )
        assert adopter.table.next_send(1) == pytest.approx(QUERY.report_time(11) + 0.75)
        # STS never exchanges synchronisation traffic, not even to repair.
        assert all(s.stats.phase_updates_piggybacked == 0 for s in suite.shapers())

    def test_sts_orphan_reschedules_when_only_the_depth_changes(self) -> None:
        sim, network, tree, suite, deliveries = build_suite("sts", topology=PENTAGON)
        assert tree.parent_of(3) == 2 and tree.max_rank == 3
        suite.register_query(QUERY)
        orphan = suite.node(2).shaper
        # Rank 1 of M = 3: l = 1/3 s.
        assert orphan.expected_send_time(1, 4) == pytest.approx(QUERY.report_time(4) + 1 / 3)
        results = fail_at(sim, suite, 5.0, 1)
        sim.run(until=12.0)
        # Node 2 re-attaches one level deeper, under node 5: its own rank
        # stays 1, but M grows to 4, so its schedule moves to l = 0.25 s.
        assert results == [({2: 5}, [])]
        assert tree.rank(2) == 1 and tree.max_rank == 4
        assert orphan.expected_send_time(1, 10) == pytest.approx(QUERY.report_time(10) + 0.25)

    def test_dts_needs_only_a_phase_update(self) -> None:
        sim, network, tree, suite, deliveries = build_suite("dts")
        suite.register_query(QUERY)
        orphan, adopter = suite.node(2).shaper, suite.node(5).shaper

        def forced_updates() -> int:
            # Phase updates the orphan piggybacked beyond its own phase shifts.
            return orphan.stats.phase_updates_piggybacked - orphan.stats.phase_shifts

        sim.run(until=5.0)
        before = forced_updates()
        suite.fail_node(1)
        sim.run(until=12.0)
        # Exactly one forced phase update resynchronises the orphan with its
        # new parent: no phase request, no control packet, no rank
        # recomputation.
        assert forced_updates() - before == 1
        assert all(s.stats.phase_updates_requested == 0 for s in suite.shapers())
        assert all(s.stats.control_overhead_bytes == 0 for s in suite.shapers())
        assert adopter.expected_receive_time(1, 2) == pytest.approx(orphan.expected_send_time(1))

    def test_nts_needs_no_reschedule_and_no_phase_update(self) -> None:
        sim, network, tree, suite, deliveries = build_suite("nts")
        suite.register_query(QUERY)
        fail_at(sim, suite, 5.0, 1)
        sim.run(until=11.5)
        # NTS's shared schedule does not depend on the tree: the adopter
        # expects the orphan at the next period start, and nothing is sent
        # to synchronise.
        assert suite.node(5).table.next_receive(1, 2) == pytest.approx(QUERY.report_time(11))
        for shaper in suite.shapers():
            assert shaper.stats.phase_updates_piggybacked == 0
            assert shaper.stats.phase_updates_requested == 0
            assert shaper.stats.control_overhead_bytes == 0

    def test_leaf_failure_prunes_dependency(self) -> None:
        # Star root 0 with leaves 1, 2: failing leaf 2 must not stall the query.
        star = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim, network, tree, suite, deliveries = build_suite("dts", topology=star)
        suite.register_query(QUERY)
        fail_at(sim, suite, 4.0, 2)
        sim.run(until=12.0)
        late = [entry for entry in deliveries if entry[3] > 5.0]
        assert late
        for entry in late:
            assert entry[2].contributing_sources == 1

    def test_failed_node_removed_from_suite(self) -> None:
        sim, network, tree, suite, deliveries = build_suite("dts")
        suite.register_query(QUERY)
        fail_at(sim, suite, 3.0, 1)
        sim.run(until=6.0)
        assert 1 not in suite.nodes
        assert 1 not in tree
        assert network.node(1).failed

    def test_sts_failure_drops_a_buffered_report(self) -> None:
        """A report a node buffered is never submitted once the node failed."""
        sim, network, tree, suite, deliveries = build_suite("sts")
        suite.register_query(QUERY)
        relay = suite.node(1).service
        # Node 1 has rank 3 of M = 4, so it sends 0.75 s into each period;
        # its children's aggregate is ready well before that and waits.
        sim.run(until=5.7)
        assert relay.stats.reports_buffered > relay.stats.reports_sent
        sent = relay.stats.reports_sent
        assert suite.fail_node(1) == ({2: 5}, [])
        sim.run(until=12.0)
        assert relay.stats.reports_sent == sent
        assert [entry for entry in deliveries if entry[3] > 7.0]

    @pytest.mark.parametrize("shaper", ["nts", "sts", "dts"])
    def test_cut_off_subtree_is_retired_but_stays_on_the_channel(self, shaper: str) -> None:
        # A hexagon 0-1-2-3-5-4-0: the tree is 0 -> 1 -> 2 -> 3 and 0 -> 4 -> 5.
        # When node 1 fails, orphan 2's only neighbours are 1 and its own
        # child 3, so repair cuts off {2, 3} although 3 still hears 5.
        sim, network, tree, suite, deliveries = build_suite(shaper, topology=HEXAGON)
        assert tree.parent_of(3) == 2
        suite.register_query(QUERY)
        results = fail_at(sim, suite, 5.0, 1)
        sim.run(until=12.0)
        network.finalize()
        assert results == [({}, [2, 3])]
        assert sorted(suite.nodes) == tree.nodes == [0, 4, 5]
        assert not network.node(2).failed and not network.node(3).failed
        # Node 5 keeps reporting alone.
        late = [entry for entry in deliveries if entry[3] > 6.0]
        assert late
        assert all(entry[2].contributing_sources == 1 for entry in late)


class TestTransientLossRecovery:
    def test_dts_resynchronises_after_dropped_phase_update(self) -> None:
        """Drop one report (and its retries) on one link; DTS must resynchronise."""
        drop_window = (3.0, 3.4)

        class WindowLoss:
            def __init__(self) -> None:
                self.dropped = 0

            def should_drop(self, src, dst, packet) -> bool:
                if not isinstance(packet, DataReportPacket):
                    return False
                if src == 2 and dst == 1 and drop_window[0] <= packet.created_at <= drop_window[1]:
                    self.dropped += 1
                    return True
                return False

        chain = Topology.line(4, spacing=100.0, comm_range=120.0)
        loss = WindowLoss()
        sim, network, tree, suite, deliveries = build_suite("dts", topology=chain, loss_model=loss)
        query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
        suite.register_query(query)
        sim.run(until=12.0)
        network.finalize()
        assert loss.dropped > 0
        # Deliveries resume after the loss window closes: essentially every
        # period between t=6 and t=12 reaches the root.
        after = [entry for entry in deliveries if entry[3] > 6.0]
        assert len(after) >= 10
        # The transient loss must not have permanently severed the 2 -> 1
        # dependency: node 1 still aggregates reports from node 2.
        node1 = suite.node(1)
        runtime_children = [
            child
            for query in node1.service.registered_queries()
            for child in [2]
            if node1.shaper.expected_receive_time(query.query_id, child) is not None
        ]
        assert runtime_children == [2]
        # Resynchronisation happened either via an explicit sequence-gap
        # recovery or via a piggybacked phase update on the next report.
        gaps = sum(s.stats.sequence_gaps_detected for s in suite.shapers())
        piggybacked = sum(s.stats.phase_updates_piggybacked for s in suite.shapers())
        assert gaps + piggybacked >= 1

    def test_nts_and_sts_tolerate_transient_loss_without_control_traffic(self) -> None:
        class EveryFifthLoss:
            def __init__(self) -> None:
                self.count = 0

            def should_drop(self, src, dst, packet) -> bool:
                if not isinstance(packet, DataReportPacket):
                    return False
                self.count += 1
                return self.count % 5 == 0

        for shaper in ("nts", "sts"):
            chain = Topology.line(4, spacing=100.0, comm_range=120.0)
            sim, network, tree, suite, deliveries = build_suite(
                shaper, topology=chain, loss_model=EveryFifthLoss()
            )
            query = QuerySpec(query_id=1, period=0.5, start_time=1.0)
            suite.register_query(query)
            sim.run(until=10.0)
            assert deliveries
            # Schedule-based shapers never exchange synchronisation traffic.
            assert all(s.stats.phase_updates_requested == 0 for s in suite.shapers())
            assert all(s.stats.control_overhead_bytes == 0 for s in suite.shapers())

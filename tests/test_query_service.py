"""Integration tests for the query service over the simulated network."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import EssatProtocolSuite
from repro.experiments.runner import install_failure_schedule
from repro.net.loss import ScriptedLoss
from repro.net.node import Network, build_network
from repro.net.packet import DataReportPacket
from repro.net.topology import FailureSchedule, Topology
from repro.query.aggregation import AggregationFunction
from repro.query.query import QuerySpec, SourceSelection
from repro.query.service import GreedySendPolicy, QueryService
from repro.radio.energy import IDEAL
from repro.routing.tree import RoutingTree, build_routing_tree
from repro.sim.engine import Simulator


def build_query_network(
    topology: Topology,
    root: int | None = None,
    seed: int = 0,
    loss_model=None,
):
    """Wire a network, routing tree and per-node query services together."""
    sim = Simulator(seed=seed)
    network = build_network(sim, topology, power_profile=IDEAL, loss_model=loss_model)
    tree = build_routing_tree(topology, root=root)
    deliveries: list[tuple[int, int, float, float, int]] = []

    def on_root_delivery(query_id, k, report, completed_at):
        deliveries.append((query_id, k, report.value, completed_at, report.contributing_sources))

    services = {}
    for node_id in tree.nodes:
        services[node_id] = QueryService(
            sim,
            network.node(node_id),
            tree,
            policy=GreedySendPolicy(),
            on_root_delivery=on_root_delivery,
        )
    return sim, network, tree, services, deliveries


class TestSingleHop:
    def test_leaf_reports_reach_root(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        query = QuerySpec(query_id=1, period=1.0, start_time=0.5, duration=3.0)
        for service in services.values():
            service.register_query(query)
        sim.run(until=5.0)
        # Reports at t = 0.5, 1.5, 2.5, 3.5 (duration ends at 3.5).
        assert len(deliveries) == 4
        ks = [entry[1] for entry in deliveries]
        assert ks == [0, 1, 2, 3]

    def test_aggregate_value_is_average_of_leaf_ids(self) -> None:
        # Star: root 0 with leaves 1 and 2.
        topo = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        query = QuerySpec(
            query_id=1, period=1.0, start_time=0.0, duration=1.5,
            aggregation=AggregationFunction.AVG,
        )
        for service in services.values():
            service.register_query(query)
        sim.run(until=4.0)
        assert deliveries
        # Default sample value is the node id, so AVG over leaves {1, 2} is 1.5.
        assert deliveries[0][2] == pytest.approx(1.5)
        assert deliveries[0][4] == 2  # contributing sources


class TestMultiHop:
    def test_chain_aggregation_counts_all_leaf_sources(self) -> None:
        topo = Topology.line(4, spacing=100.0, comm_range=120.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        # Only node 3 is a leaf in the chain; use ALL_NODES to exercise
        # interior sources as well.
        query = QuerySpec(
            query_id=1,
            period=1.0,
            start_time=0.0,
            duration=2.5,
            sources=SourceSelection.ALL_NODES,
            aggregation=AggregationFunction.COUNT,
        )
        for service in services.values():
            service.register_query(query)
        sim.run(until=6.0)
        assert deliveries
        # All four nodes contribute a sample each period.
        assert deliveries[0][2] == pytest.approx(4.0)

    def test_latency_increases_with_depth(self) -> None:
        shallow_topo = Topology.line(2, spacing=100.0, comm_range=120.0)
        deep_topo = Topology.line(5, spacing=100.0, comm_range=120.0)
        latencies = {}
        for name, topo in (("shallow", shallow_topo), ("deep", deep_topo)):
            sim, network, tree, services, deliveries = build_query_network(topo, root=0)
            query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=4.0)
            for service in services.values():
                service.register_query(query)
            sim.run(until=8.0)
            assert deliveries
            latencies[name] = max(done - query.report_time(k) for _, k, _, done, _ in deliveries)
        assert latencies["deep"] > latencies["shallow"]

    def test_multiple_queries_run_concurrently(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        q1 = QuerySpec(query_id=1, period=0.5, start_time=0.0, duration=2.0)
        q2 = QuerySpec(query_id=2, period=1.0, start_time=0.3, duration=2.0)
        for service in services.values():
            service.register_query(q1)
            service.register_query(q2)
        sim.run(until=5.0)
        by_query = {}
        for query_id, k, _value, _done, _sources in deliveries:
            by_query.setdefault(query_id, []).append(k)
        assert len(by_query[1]) == 5
        assert len(by_query[2]) == 3

    def test_duplicate_registration_rejected(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        query = QuerySpec(query_id=1, period=1.0)
        services[0].register_query(query)
        with pytest.raises(ValueError):
            services[0].register_query(query)


class TestTimeouts:
    def test_root_times_out_when_leaf_subtree_is_dead(self) -> None:
        # Star with two leaves; leaf 2's radio is off for the whole run, so
        # the root must time out and deliver partial aggregates from leaf 1.
        topo = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        network.node(2).radio.sleep()
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=2.5)
        for service in services.values():
            service.register_query(query)
        sim.run(until=6.0)
        assert deliveries
        # Aggregates only contain leaf 1's sample.
        assert all(entry[4] == 1 for entry in deliveries)
        assert services[0].stats.timeouts >= 1

    def test_interior_node_timeout_forwards_partial_aggregate(self) -> None:
        # Chain 0 <- 1 <- 2 plus an extra leaf 3 under node 1.
        topo = Topology.from_positions(
            [(0, 0), (100, 0), (200, 0), (100, 80)], comm_range=120.0
        )
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        network.node(2).radio.sleep()  # kill one leaf
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=2.5)
        for service in services.values():
            service.register_query(query)
        sim.run(until=6.0)
        assert deliveries
        assert all(entry[4] == 1 for entry in deliveries)

    def test_no_contribution_periods_are_skipped(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        network.node(1).radio.sleep()  # the only source is dead
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=2.5)
        for service in services.values():
            service.register_query(query)
        sim.run(until=6.0)
        assert deliveries == []


class TestLossRecovery:
    def test_mac_retransmission_hides_single_packet_loss(self) -> None:
        dropped = []

        def drop_first_report(src, dst, packet):
            if isinstance(packet, DataReportPacket) and not dropped:
                dropped.append(packet.packet_id)
                return True
            return False

        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, network, tree, services, deliveries = build_query_network(
            topo, root=0, loss_model=ScriptedLoss(drop_first_report)
        )
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=2.5)
        for service in services.values():
            service.register_query(query)
        sim.run(until=6.0)
        assert len(deliveries) == 3
        assert dropped


class TestMaintenanceHooks:
    def test_remove_child_dependency_unblocks_collection(self) -> None:
        topo = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        network.node(2).radio.sleep()
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=4.5)
        for service in services.values():
            service.register_query(query)
        # After 2 s, the root learns child 2 is dead and drops the dependency.
        sim.schedule_at(2.0, services[0].remove_child_dependency, 2)
        sim.run(until=8.0)
        # Later periods complete without waiting for the dead child, hence
        # without a timeout: their completion time is close to the period start.
        late = [entry for entry in deliveries if entry[1] >= 3]
        assert late
        for _query_id, k, _value, done, _sources in late:
            assert done - query.report_time(k) < 0.5

    def test_stop_query_halts_generation(self) -> None:
        topo = Topology.line(2, spacing=50.0, comm_range=100.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0)
        for service in services.values():
            service.register_query(query)
        sim.schedule_at(2.5, lambda: [s.stop_query(1) for s in services.values()])
        sim.run(until=10.0)
        assert 2 <= len(deliveries) <= 4

    def test_stats_counters(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim, network, tree, services, deliveries = build_query_network(topo, root=0)
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=2.5)
        for service in services.values():
            service.register_query(query)
        sim.run(until=5.0)
        assert services[2].stats.samples_generated == 3
        assert services[2].stats.reports_sent == 3
        assert services[1].stats.reports_received == 3
        assert services[0].stats.root_deliveries == 3


class TestChurnCompletionExactlyOnce:
    """Regression tests for the ``remove_child_dependency`` /
    ``_on_collection_timeout`` interaction under injected node failures.

    A failed node without coordinated repair (the PR 2 churn path with the
    baseline failure handler) is discovered by its parent through
    consecutive missing reports (Section 4.3).  The escalation fires *from
    inside* the collection-timeout handler, so removing the dependency can
    complete the very collection whose timeout is being processed: before
    the fix, the timeout handler then completed it a second time, delivering
    (or forwarding) the same period twice.
    """

    @staticmethod
    def _run_dts_star_with_failure():
        # Star: root 0, source leaves 1 and 2; node 2 fails at t=1.25 via the
        # scenario failure-injection path, with no tree repair (as for a baseline).
        topo = Topology.from_positions([(0, 0), (60, 0), (0, 60)], comm_range=80.0)
        sim = Simulator(seed=3)
        network = build_network(sim, topo, power_profile=IDEAL)
        tree = build_routing_tree(topo, root=0)
        deliveries: list[tuple[int, int]] = []
        suite = EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper="dts",
            on_root_delivery=lambda q, k, report, done: deliveries.append((q, k)),
        )
        schedule = FailureSchedule(explicit=((1.25, 2),))
        events = install_failure_schedule(sim, network, tree, schedule, network.fail_node)
        assert events == [(1.25, 2)]
        suite.register_query(QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=8.0))
        sim.run(until=12.0)
        return suite, deliveries

    def test_escalated_removal_completes_period_exactly_once(self) -> None:
        suite, deliveries = self._run_dts_star_with_failure()
        root = suite.nodes[0]
        # The escalation path must actually have run: the root declared the
        # silent child failed after repeated missing reports.
        assert root.shaper.stats.children_declared_failed == 1
        # Every period is delivered at the root exactly once -- the period
        # completed by the mid-timeout removal must not be forwarded again
        # by the remainder of the timeout handler.
        assert len(deliveries) == len(set(deliveries)), (
            "duplicate root deliveries: %r" % (sorted(deliveries),)
        )
        assert root.service.stats.root_deliveries == len(set(deliveries))

    def test_periods_after_removal_complete_without_timeouts(self) -> None:
        suite, deliveries = self._run_dts_star_with_failure()
        root = suite.nodes[0]
        # Once the dead child is removed, later collections complete as soon
        # as the surviving child reports: the timeout count stops growing at
        # the escalation threshold (3 consecutive misses).
        assert root.service.stats.timeouts == 3
        delivered_ks = sorted(k for _, k in set(deliveries))
        assert delivered_ks == list(range(len(delivered_ks))), delivered_ks

    def test_removal_cancels_empty_collection_immediately(self) -> None:
        # Chain 0 <- 1 <- 2: node 1 relays, node 2 is the only source.  When
        # node 2 dies, node 1's open collection holds nothing at all: the
        # removal must cancel it (and its timeout) immediately rather than
        # leaving the period to fire its timer.
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        sim = Simulator(seed=5)
        network = build_network(sim, topo, power_profile=IDEAL)
        tree = build_routing_tree(topo, root=0)
        deliveries: list[tuple[int, int]] = []
        suite = EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper="dts",
            on_root_delivery=lambda q, k, report, done: deliveries.append((q, k)),
        )
        schedule = FailureSchedule(explicit=((1.25, 2),))
        install_failure_schedule(sim, network, tree, schedule, network.fail_node)
        suite.register_query(QuerySpec(query_id=1, period=1.0, start_time=0.0, duration=8.0))
        sim.run(until=12.0)
        relay = suite.nodes[1]
        assert relay.shaper.stats.children_declared_failed == 1
        # Exactly the three run-up misses time out; once the dead child is
        # removed, empty periods retire at period start with no timer armed.
        assert relay.service.stats.timeouts == 3
        assert relay.service.stats.reports_sent <= 2  # the pre-failure periods
        assert len(deliveries) == len(set(deliveries))


class TestPeriodWatermark:
    """The per-period bookkeeping stays O(in-flight), not O(run length).

    Periods complete (and submit) almost entirely in order, so a contiguous
    watermark absorbs them; only out-of-order marks sit in the sparse set
    until the watermark catches up.
    """

    @staticmethod
    def _watermark():
        from repro.query.service import _PeriodWatermark

        return _PeriodWatermark()

    def test_in_order_marks_collapse_into_the_watermark(self) -> None:
        marks = self._watermark()
        for k in range(100):
            marks.mark(k)
        assert marks.through == 99
        assert marks.sparse == set()
        assert 99 in marks
        assert 100 not in marks

    def test_out_of_order_mark_is_absorbed_when_the_gap_closes(self) -> None:
        marks = self._watermark()
        marks.mark(0)
        marks.mark(2)
        marks.mark(3)
        assert marks.through == 0
        assert marks.sparse == {2, 3}
        assert 2 in marks and 1 not in marks
        marks.mark(1)
        assert marks.through == 3
        assert marks.sparse == set()
        # Re-marking below the watermark is a no-op.
        marks.mark(2)
        assert marks.through == 3
        assert marks.sparse == set()


# ---------------------------------------------------------------------- #
# Registration: sources and participating children
# ---------------------------------------------------------------------- #


class _RecordingPolicy(GreedySendPolicy):
    """Records what each registration hands the policy."""

    __slots__ = ("registered",)

    def __init__(self) -> None:
        super().__init__()
        self.registered: list = []

    def query_registered(self, query, *, participating_children=(), is_source=False, **kwargs):
        self.registered.append((query.query_id, list(participating_children), is_source))
        super().query_registered(query, **kwargs)


def _naive_subtree(parent: dict, node: int) -> set:
    """Members whose path up through ``parent`` passes ``node``."""
    members = set()
    for member in {node, *parent, *parent.values()}:
        current = member
        while current != node and current in parent:
            current = parent[current]
        if current == node:
            members.add(member)
    return members


@st.composite
def _random_tree_parents(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    ids = draw(st.permutations(list(range(size))))
    parent = {
        ids[position]: ids[draw(st.integers(min_value=0, max_value=position - 1))]
        for position in range(1, size)
    }
    return size, ids[0], parent


class TestRegistrationMatchesNaiveDefinitions:
    @settings(max_examples=60, deadline=None)
    @given(shape=_random_tree_parents(), explicit=st.data())
    def test_sources_and_participating_children(self, shape, explicit) -> None:
        size, root, parent = shape
        sim = Simulator(seed=0)
        network = build_network(
            sim, Topology.line(size, spacing=10.0, comm_range=15.0), power_profile=IDEAL
        )
        tree = RoutingTree(root=root, parent=dict(parent))
        nodes = set(range(size))
        children = {node: sorted(c for c, up in parent.items() if up == node) for node in nodes}
        explicit_sources = [
            frozenset(),
            frozenset({1000}),
            frozenset(explicit.draw(st.sets(st.sampled_from(sorted(nodes)), max_size=4))),
            frozenset(explicit.draw(st.sets(st.sampled_from(sorted(nodes)), max_size=2))) | {-5},
        ]
        selections = [SourceSelection.LEAVES, SourceSelection.ALL_NODES, *explicit_sources]
        queries = [
            QuerySpec(query_id=query_id, period=1.0, sources=sources)
            for query_id, sources in enumerate(selections)
        ]
        policies = {}
        for node_id in sorted(nodes):
            policies[node_id] = _RecordingPolicy()
            service = QueryService(sim, network.node(node_id), tree, policy=policies[node_id])
            for query in queries:
                service.register_query(query)
        leaves = {node for node in nodes if not children[node]}
        for query_id, selection in enumerate(selections):
            if selection is SourceSelection.LEAVES:
                sources = leaves
            elif selection is SourceSelection.ALL_NODES:
                sources = nodes
            else:
                sources = set(selection)
            for node_id in sorted(nodes):
                expected_children = [
                    child for child in children[node_id] if _naive_subtree(parent, child) & sources
                ]
                assert policies[node_id].registered[query_id] == (
                    query_id,
                    expected_children,
                    node_id in sources,
                )


def test_paper_dts_registration_traverses_each_subtree_at_most_once(monkeypatch) -> None:
    """Registering the paper DTS cell's queries walks each node's subtree once.

    Counted from outside: every subtree traversal starts a ``deque`` in the
    routing-tree module.
    """
    import repro.routing.tree as tree_module
    from repro.experiments.config import paper_scale
    from repro.experiments.runner import assemble_run
    from repro.experiments.scenarios import query_count_workload
    from repro.orchestrator.jobs import RunJob

    scenario = paper_scale()
    queries = RunJob(
        scenario=scenario, protocol="DTS-SS", workload=query_count_workload(10), seed=1
    ).resolve_queries()
    # Assembled with no queries, so the count below sees registration alone.
    run = assemble_run(scenario, "DTS-SS", [], 1)
    suite, tree = run.suite, run.tree

    traversals = []
    real_deque = tree_module.deque

    def counting_deque(*args, **kwargs):
        traversals.append(args)
        return real_deque(*args, **kwargs)

    monkeypatch.setattr(tree_module, "deque", counting_deque)
    suite.register_queries(queries)
    assert len(queries) == 30
    registrations = sum(len(node.service.registered_queries()) for node in suite.nodes.values())
    assert registrations == 30 * len(tree)
    assert len(traversals) <= len(tree)

"""Tests for node placement and disk-model connectivity."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.topology import Position, Topology, generate_connected_random_topology
from repro.sim.rng import RandomStreams


class TestPosition:
    def test_distance(self) -> None:
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self) -> None:
        a, b = Position(1.5, 2.5), Position(-3, 7)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))


class TestTopologyConstruction:
    def test_random_placement_inside_area(self) -> None:
        topo = Topology.random(num_nodes=50, area=(500.0, 500.0), comm_range=125.0, seed=1)
        assert topo.num_nodes == 50
        for position in topo.positions.values():
            assert 0.0 <= position.x <= 500.0
            assert 0.0 <= position.y <= 500.0

    def test_random_placement_is_seed_deterministic(self) -> None:
        topo_a = Topology.random(10, seed=3)
        topo_b = Topology.random(10, seed=3)
        assert topo_a.positions == topo_b.positions

    def test_grid_shape_and_neighbors(self) -> None:
        topo = Topology.grid(rows=3, cols=3, spacing=10.0)
        assert topo.num_nodes == 9
        # Center node (id 4) has 4 axis-aligned neighbours at default range.
        assert topo.neighbors(4) == frozenset({1, 3, 5, 7})

    def test_line_topology_chain_connectivity(self) -> None:
        topo = Topology.line(num_nodes=4, spacing=100.0, comm_range=120.0)
        assert topo.neighbors(0) == frozenset({1})
        assert topo.neighbors(1) == frozenset({0, 2})
        assert topo.neighbors(3) == frozenset({2})

    def test_from_positions(self) -> None:
        topo = Topology.from_positions([(0, 0), (50, 0), (200, 0)], comm_range=100.0)
        assert topo.in_range(0, 1)
        assert not topo.in_range(0, 2)

    def test_rejects_nonpositive_range(self) -> None:
        with pytest.raises(ValueError):
            Topology.from_positions([(0, 0)], comm_range=0.0)

    def test_rejects_empty_random(self) -> None:
        with pytest.raises(ValueError):
            Topology.random(0)

    def test_rejects_bad_grid(self) -> None:
        with pytest.raises(ValueError):
            Topology.grid(0, 3, 10.0)
        with pytest.raises(ValueError):
            Topology.grid(3, 3, 0.0)


class TestConnectivityQueries:
    def test_in_range_is_symmetric_and_irreflexive(self) -> None:
        topo = Topology.random(20, seed=5)
        for a in topo.node_ids:
            assert not topo.in_range(a, a)
            for b in topo.node_ids:
                assert topo.in_range(a, b) == topo.in_range(b, a)

    def test_neighbors_match_in_range(self) -> None:
        topo = Topology.random(25, seed=2)
        for a in topo.node_ids:
            expected = {b for b in topo.node_ids if topo.in_range(a, b)}
            assert topo.neighbors(a) == expected

    def test_center_node_is_closest_to_center(self) -> None:
        topo = Topology.from_positions(
            [(0, 0), (250, 250), (499, 499)], comm_range=400.0, area=(500.0, 500.0)
        )
        assert topo.center_node() == 1

    def test_is_connected(self) -> None:
        connected = Topology.line(num_nodes=3, spacing=10.0, comm_range=15.0)
        assert connected.is_connected()
        disconnected = Topology.from_positions([(0, 0), (1000, 0)], comm_range=10.0)
        assert not disconnected.is_connected()

    def test_connected_component_of(self) -> None:
        topo = Topology.from_positions([(0, 0), (5, 0), (1000, 0)], comm_range=10.0)
        assert topo.connected_component_of(0) == frozenset({0, 1})


class TestRemoveNode:
    """Connectivity of the survivors of permanent failures (the churn
    substrate): failed nodes are excluded from the search, the placement
    itself never changes."""

    def test_removal_can_disconnect_and_is_detected(self) -> None:
        topo = Topology.line(num_nodes=5, spacing=10.0, comm_range=15.0)
        assert topo.is_connected()
        # The middle node is a cut vertex.
        assert topo.connected_component_of(0, {2}) == frozenset({0, 1})
        assert topo.connected_component_of(4, {2}) == frozenset({3, 4})
        # Excluding a node leaves the topology untouched.
        assert topo.connected_component_of(0) == frozenset(range(5))
        assert topo.neighbors(1) == frozenset({0, 2})

    def test_removing_a_leaf_preserves_connectivity(self) -> None:
        topo = Topology.line(num_nodes=4, spacing=10.0, comm_range=15.0)
        assert topo.connected_component_of(0, {3}) == frozenset({0, 1, 2})

    def test_failure_injection_never_partitions_survivors(self) -> None:
        """The failure-injection path skips fraction-drawn victims that
        would partition the survivors."""
        from repro.experiments.runner import install_failure_schedule
        from repro.net.node import build_network
        from repro.net.topology import FailureSchedule
        from repro.radio.energy import IDEAL
        from repro.routing.tree import build_routing_tree
        from repro.sim.engine import Simulator

        # In a 7-node line rooted at node 3, every interior node is a cut
        # vertex: a 40% fraction can only ever fail end nodes (in order).
        topo = Topology.line(num_nodes=7, spacing=10.0, comm_range=15.0)
        sim = Simulator(seed=3)
        network = build_network(sim, topo, power_profile=IDEAL)
        tree = build_routing_tree(topo, root=3)
        schedule = FailureSchedule(fraction=0.4, window=(1.0, 2.0))
        events = install_failure_schedule(sim, network, tree, schedule, network.fail_node)
        sim.run(until=5.0)
        failed = {node for _, node in events}
        assert failed
        for node in failed:
            assert network.node(node).failed
        survivors = [n for n in tree.nodes if n not in failed]
        scratch = Topology(
            positions={n: topo.positions[n] for n in survivors},
            comm_range=topo.comm_range,
            area=topo.area,
        )
        assert scratch.is_connected()
        assert tree.root in scratch.positions


class TestConnectedGeneration:
    def test_generated_topology_is_connected(self) -> None:
        topo = generate_connected_random_topology(
            num_nodes=30, area=(300.0, 300.0), comm_range=100.0, seed=4
        )
        assert topo.is_connected()

    def test_generation_fails_when_impossible(self) -> None:
        with pytest.raises(RuntimeError):
            generate_connected_random_topology(
                num_nodes=40, area=(5000.0, 5000.0), comm_range=10.0, seed=0, max_attempts=3
            )

    def test_generation_draws_one_fork_per_attempt(self) -> None:
        # The placement is the first connected draw of forks 0, 1, 2, ...
        # of the seed's streams, so it is a function of the seed alone.
        topo = generate_connected_random_topology(
            num_nodes=15, area=(300.0, 300.0), comm_range=100.0, seed=21
        )
        base = RandomStreams(21)
        draws = (
            Topology.random(
                num_nodes=15, area=(300.0, 300.0), comm_range=100.0, streams=base.fork(attempt)
            )
            for attempt in range(200)
        )
        first = next(draw for draw in draws if draw.is_connected())
        assert topo.positions == first.positions


@settings(max_examples=30, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=30),
    comm_range=st.floats(min_value=20.0, max_value=700.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_neighbor_relation_is_symmetric(num_nodes: int, comm_range: float, seed: int) -> None:
    topo = Topology.random(num_nodes, comm_range=comm_range, seed=seed)
    for a in topo.node_ids:
        for b in topo.neighbors(a):
            assert a in topo.neighbors(b)
            assert topo.distance(a, b) <= comm_range + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    coordinates=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        ),
        max_size=25,
    ),
    comm_range=st.floats(min_value=10.0, max_value=200.0, allow_nan=False),
    excluded=st.sets(st.integers(min_value=0, max_value=24), max_size=25),
)
@example(coordinates=[], comm_range=10.0, excluded=set())
@example(coordinates=[(0.0, 0.0), (5.0, 0.0)], comm_range=10.0, excluded={0, 1})
@example(coordinates=[(0.0, 0.0), (8.0, 0.0), (16.0, 0.0)], comm_range=10.0, excluded={1})
def test_property_connectivity_matches_networkx(
    coordinates: list, comm_range: float, excluded: set
) -> None:
    """BFS connectivity agrees with networkx, on the whole graph and on the
    subgraph induced by the nodes outside ``excluded``."""
    nx = pytest.importorskip("networkx")
    topo = Topology.from_positions(coordinates, comm_range=comm_range)
    graph = nx.Graph()
    graph.add_nodes_from(topo.node_ids)
    graph.add_edges_from((a, b) for a in topo.node_ids for b in topo.neighbors(a))
    if not topo.node_ids:
        # networkx leaves connectivity of the null graph undefined.
        assert topo.is_connected()
        return
    assert topo.is_connected() == nx.is_connected(graph)
    survivors = graph.subgraph(node for node in topo.node_ids if node not in excluded)
    for node in topo.node_ids:
        assert topo.connected_component_of(node) == nx.node_connected_component(graph, node)
        if node in survivors:
            assert topo.connected_component_of(node, excluded) == (
                nx.node_connected_component(survivors, node)
            )

"""Tests for routing-tree construction, rank/level computation and repair."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import Topology
from repro.routing.tree import RoutingError, RoutingTree, build_routing_tree


def chain_tree(length: int) -> RoutingTree:
    """A simple chain 0 <- 1 <- 2 <- ... (root 0)."""
    return RoutingTree(root=0, parent={i: i - 1 for i in range(1, length)})


class TestRoutingTreeStructure:
    def test_chain_levels_and_ranks(self) -> None:
        tree = chain_tree(4)
        assert [tree.level(i) for i in range(4)] == [0, 1, 2, 3]
        assert [tree.rank(i) for i in range(4)] == [3, 2, 1, 0]
        assert tree.max_rank == 3
        assert tree.depth == 3

    def test_leaf_rank_is_zero(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 0, 3: 1})
        assert tree.rank(2) == 0
        assert tree.rank(3) == 0
        assert tree.is_leaf(3)
        assert not tree.is_leaf(1)

    def test_rank_is_subtree_height_not_level(self) -> None:
        # Node 1 has a deep subtree; node 2 is a direct leaf of the root.
        tree = RoutingTree(root=0, parent={1: 0, 2: 0, 3: 1, 4: 3})
        assert tree.rank(0) == 3
        assert tree.rank(1) == 2
        assert tree.rank(2) == 0
        assert tree.level(2) == 1

    def test_children_are_sorted(self) -> None:
        tree = RoutingTree(root=0, parent={3: 0, 1: 0, 2: 0})
        assert tree.children(0) == [1, 2, 3]

    def test_leaves_and_interior(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 1})
        assert tree.leaves == [2, 3]
        assert tree.interior_nodes == [0, 1]

    def test_parent_of_root_is_none(self) -> None:
        tree = chain_tree(3)
        assert tree.parent_of(0) is None
        assert tree.parent_of(2) == 1

    def test_subtree(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 1, 4: 0})
        assert tree.subtree(1) == frozenset({1, 2, 3})
        assert tree.subtree(0) == frozenset({0, 1, 2, 3, 4})

    def test_subtree_contains_any(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 0})
        assert tree.subtree_contains_any(1, {2})
        assert not tree.subtree_contains_any(3, {2})
        assert not tree.subtree_contains_any(1, set())

    def test_contains_and_len(self) -> None:
        tree = chain_tree(3)
        assert 2 in tree
        assert 9 not in tree
        assert len(tree) == 3

    def test_unknown_node_raises(self) -> None:
        tree = chain_tree(3)
        with pytest.raises(RoutingError):
            tree.level(99)

    def test_unreachable_node_rejected(self) -> None:
        with pytest.raises(RoutingError):
            RoutingTree(root=0, parent={2: 3, 3: 2})

    def test_root_with_parent_rejected(self) -> None:
        with pytest.raises(RoutingError):
            RoutingTree(root=0, parent={0: 1, 1: 0})


def no_neighbors(node: int) -> tuple:
    return ()


class TestRoutingTreeMutation:
    def test_repair_detaches_unreachable_orphans(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 2})
        assert tree.repair(1, no_neighbors) == ({}, [2, 3])
        assert tree.nodes == [0]
        assert tree.parent == {}

    def test_repair_restores_structure(self) -> None:
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 2})
        neighbors = {2: [0, 1, 3]}
        assert tree.repair(1, lambda node: neighbors[node]) == ({2: 0}, [])
        assert tree.parent_of(2) == 0
        assert tree.parent_of(3) == 2
        assert tree.rank(0) == 2

    def test_repair_of_unknown_node_rejected(self) -> None:
        tree = chain_tree(3)
        with pytest.raises(RoutingError):
            tree.repair(7, no_neighbors)
        assert tree.nodes == [0, 1, 2]


class TestBuildRoutingTree:
    def test_line_topology_builds_chain(self) -> None:
        topo = Topology.line(5, spacing=100.0, comm_range=120.0)
        tree = build_routing_tree(topo, root=0)
        assert tree.parent_of(1) == 0
        assert tree.parent_of(4) == 3
        assert tree.max_rank == 4

    def test_default_root_is_center_node(self) -> None:
        topo = Topology.from_positions(
            [(0, 0), (250, 250), (499, 0)], comm_range=600.0, area=(500.0, 500.0)
        )
        tree = build_routing_tree(topo)
        assert tree.root == 1

    def test_levels_are_shortest_hop_distances(self) -> None:
        topo = Topology.random(40, area=(400.0, 400.0), comm_range=150.0, seed=8)
        root = topo.center_node()
        tree = build_routing_tree(topo, root=root)
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        graph.add_nodes_from(topo.node_ids)
        graph.add_edges_from((a, b) for a in topo.node_ids for b in topo.neighbors(a))
        lengths = nx.single_source_shortest_path_length(graph, root)
        for node in tree.nodes:
            assert tree.level(node) == lengths[node]

    def test_max_distance_filter(self) -> None:
        topo = Topology.from_positions(
            [(0, 0), (100, 0), (200, 0), (600, 0)], comm_range=450.0
        )
        tree = build_routing_tree(topo, root=0, max_distance_from_root=300.0)
        assert 3 not in tree
        assert set(tree.nodes) == {0, 1, 2}

    def test_unknown_root_rejected(self) -> None:
        topo = Topology.line(3, spacing=50.0)
        with pytest.raises(RoutingError):
            build_routing_tree(topo, root=42)

    def test_disconnected_nodes_left_out(self) -> None:
        topo = Topology.from_positions([(0, 0), (50, 0), (5000, 0)], comm_range=100.0)
        tree = build_routing_tree(topo, root=0)
        assert set(tree.nodes) == {0, 1}


# Chain 0 - 1 - 2 - 3 - 4 plus node 5 linked to both 0 and 2.
BYPASS = Topology.from_positions(
    [(0, 0), (100, 0), (200, 0), (300, 0), (400, 0), (100, 60)], comm_range=125.0
)


class TestTreeMaintenance:
    def test_failure_reattaches_orphan_to_surviving_neighbor(self) -> None:
        tree = build_routing_tree(BYPASS, root=0)
        assert tree.parent_of(2) == 1
        assert tree.repair(1, BYPASS.neighbors) == ({2: 5}, [])
        assert 1 not in tree
        assert tree.parent_of(2) == 5

    def test_failure_with_no_alternative_disconnects(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        tree = build_routing_tree(topo, root=0)
        assert tree.repair(1, topo.neighbors) == ({}, [2])
        assert set(tree.nodes) == {0}

    def test_failure_preserves_orphan_subtree_structure(self) -> None:
        tree = build_routing_tree(BYPASS, root=0)
        assert tree.parent_of(3) == 2
        reattached, _ = tree.repair(1, BYPASS.neighbors)
        # Node 2 reattaches through node 5 (a neighbour at level 1); its
        # subtree (3, 4) stays intact below it.
        assert reattached[2] == 5
        assert tree.parent_of(3) == 2
        assert tree.parent_of(4) == 3
        assert [tree.level(node) for node in (5, 2, 3, 4)] == [1, 2, 3, 4]

    def test_rank_changes_reported(self) -> None:
        # When node 1 fails, node 2's subtree moves under node 5, whose rank
        # grows from 0 (leaf) to 3.
        tree = build_routing_tree(BYPASS, root=0)
        assert tree.rank(5) == 0
        tree.repair(1, BYPASS.neighbors)
        assert tree.rank(5) == 3
        assert tree.rank(0) == 4

    @pytest.mark.parametrize(
        ("third_neighbors", "expected"),
        [([1, 4, 7], {2: 7, 3: 7}), ([1, 4], {2: 7, 3: 4})],
    )
    def test_earlier_reattachment_counts_for_later_orphans(
        self, third_neighbors: list, expected: dict
    ) -> None:
        # Node 1 fails with orphans 2 (child 4) and 3.  Orphan 2 can only
        # reach 7 (level 3), which moves 4 from level 3 to level 5; orphan 3
        # then sees 4 at its new level, or reaches the tree only through it.
        tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 1, 4: 2, 5: 0, 6: 5, 7: 6})
        neighbors = {2: [1, 4, 7], 3: third_neighbors}
        assert tree.repair(1, neighbors.__getitem__) == (expected, [])
        assert tree.level(4) == 5
        assert tree.level(3) == tree.level(expected[3]) + 1

    def test_root_failure_rejected(self) -> None:
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        tree = build_routing_tree(topo, root=0)
        with pytest.raises(RoutingError):
            tree.repair(0, topo.neighbors)
        assert tree.nodes == [0, 1, 2]


@settings(max_examples=30, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_tree_invariants_on_random_topologies(num_nodes: int, seed: int) -> None:
    """Levels increase by one along edges; ranks are consistent with children."""
    topo = Topology.random(num_nodes, area=(300.0, 300.0), comm_range=120.0, seed=seed)
    root = topo.center_node()
    tree = build_routing_tree(topo, root=root)
    for node in tree.nodes:
        parent = tree.parent_of(node)
        if parent is not None:
            assert tree.level(node) == tree.level(parent) + 1
            assert topo.in_range(node, parent)
        kids = tree.children(node)
        if kids:
            assert tree.rank(node) == 1 + max(tree.rank(kid) for kid in kids)
        else:
            assert tree.rank(node) == 0
    # Every node of the root's connected component is spanned.
    assert set(tree.nodes) == set(topo.connected_component_of(root))


# ---------------------------------------------------------------------- #
# Oracle for the views cached per tree shape
# ---------------------------------------------------------------------- #

#: Ids that are never part of a generated tree.
OUT_OF_TREE_IDS = (1000, 1001, -1)


def naive_children(parent: dict, node: int) -> list:
    return sorted(child for child, up in parent.items() if up == node)


def naive_path_up(parent: dict, node: int) -> list:
    path = [node]
    while path[-1] in parent:
        path.append(parent[path[-1]])
    return path


def naive_subtree(parent: dict, root: int, node: int) -> frozenset:
    members = set(parent) | {root}
    return frozenset(member for member in members if node in naive_path_up(parent, member))


def assert_views_match_naive(tree: RoutingTree, targets_pool: list) -> None:
    """Every derived view equals a recomputation from ``tree.parent`` alone."""
    parent = dict(tree.parent)
    nodes = sorted(set(parent) | {tree.root})
    leaves = [node for node in nodes if not naive_children(parent, node)]
    assert tree.nodes == nodes
    assert tree.leaves == leaves
    assert tree.interior_nodes == [node for node in nodes if node not in leaves]
    assert tree.node_set == frozenset(nodes)
    assert tree.leaf_set == frozenset(leaves)
    for node in nodes:
        subtree = naive_subtree(parent, tree.root, node)
        level = len(naive_path_up(parent, node)) - 1
        assert tree.subtree(node) == subtree
        assert tree.level(node) == level
        assert tree.rank(node) == max(
            len(naive_path_up(parent, member)) - 1 - level for member in subtree
        )
        for targets in targets_pool:
            assert tree.subtree_contains_any(node, targets) == bool(subtree & set(targets))
    # The list views are fresh copies: mutating one leaves the tree intact.
    tree.nodes.clear()
    tree.leaves.clear()
    tree.interior_nodes.clear()
    assert tree.nodes == nodes
    assert tree.leaves == leaves


@st.composite
def random_trees(draw, max_nodes: int = 14):
    """A random rooted tree over shuffled ids (so id order is not tree order)."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    ids = draw(st.permutations(list(range(size))))
    parent = {
        ids[position]: ids[draw(st.integers(min_value=0, max_value=position - 1))]
        for position in range(1, size)
    }
    return RoutingTree(root=ids[0], parent=parent)


#: Ids outside every generated tree that the physical graph may still hold.
OFF_TREE_NEIGHBORS = (1000, 1001)


def draw_neighbors(data, tree: RoutingTree):
    """A physical graph for ``tree``: its edges plus random extra links.

    Returned as the ``neighbors`` callable :meth:`RoutingTree.repair` takes.
    """
    ids = [*tree.nodes, *OFF_TREE_NEIGHBORS]
    pairs = [(a, b) for index, a in enumerate(ids) for b in ids[index + 1 :]]
    extra = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * len(ids)))
    graph: dict = {node: set() for node in ids}
    for a, b in [*tree.parent.items(), *extra]:
        graph[a].add(b)
        graph[b].add(a)
    return lambda node: graph[node]


#: Failure picks; each indexes into the tree's non-root nodes at that step.
FAILURES = st.lists(st.integers(min_value=0, max_value=10_000), max_size=8)


@settings(max_examples=150, deadline=None)
@given(tree=random_trees(), failures=FAILURES, data=st.data())
def test_cached_views_match_naive_recomputation_through_mutations(
    tree: RoutingTree, failures: list, data
) -> None:
    neighbors = draw_neighbors(data, tree)
    departed: list = []
    for step in range(len(failures) + 1):
        in_tree = tree.nodes
        targets_pool = [
            [],
            frozenset(),
            list(OUT_OF_TREE_IDS),
            frozenset(data.draw(st.sets(st.sampled_from(in_tree), max_size=3))),
            set(data.draw(st.sets(st.sampled_from(in_tree), max_size=2))) | {OUT_OF_TREE_IDS[0]},
            # Ids that left the tree through an earlier repair.
            list(departed),
        ]
        assert_views_match_naive(tree, targets_pool)
        non_root = sorted(tree.parent)
        if step == len(failures) or not non_root:
            break
        failed = non_root[failures[step] % len(non_root)]
        _, detached = tree.repair(failed, neighbors)
        departed += [failed, *detached]


class ReferenceTree(RoutingTree):
    """The two-step repair :meth:`RoutingTree.repair` replaced.

    ``remove_node`` detaches the failed node and every orphan subtree and
    rebuilds; ``attach_subtree`` re-attaches one subtree and rebuilds.
    """

    def remove_node(self, node_id: int) -> list:
        self._require(node_id)
        if node_id == self.root:
            raise RoutingError("cannot remove the root")
        orphans = list(self._children[node_id])
        for orphan in orphans:
            for member in self.subtree(orphan):
                self.parent.pop(member, None)
        self.parent.pop(node_id, None)
        self._rebuild()
        return orphans

    def attach_subtree(self, subtree_root: int, new_parent: int, internal_edges: dict) -> None:
        self._require(new_parent)
        if subtree_root in self:
            raise RoutingError(f"node {subtree_root} is already part of the tree")
        self.parent[subtree_root] = new_parent
        for child, parent in internal_edges.items():
            self.parent[child] = parent
        self._rebuild()


def reference_repair(tree: ReferenceTree, failed: int, neighbors) -> tuple:
    """The naive repair: capture each orphan subtree, remove, re-attach one by one."""
    members = {}
    edges = {}
    for orphan in tree.children(failed):
        members[orphan] = set(tree.subtree(orphan))
        edges[orphan] = {m: tree.parent[m] for m in members[orphan] if m != orphan}
    orphans = tree.remove_node(failed)
    reattached: dict = {}
    detached: list = []
    for orphan in orphans:
        excluded = members[orphan] | {failed}
        candidates = [n for n in neighbors(orphan) if n in tree and n not in excluded]
        if not candidates:
            detached.extend(members[orphan])
            continue
        new_parent = min(candidates, key=lambda n: (tree.level(n), n))
        tree.attach_subtree(orphan, new_parent, edges[orphan])
        reattached[orphan] = new_parent
    return reattached, sorted(detached)


@settings(max_examples=200, deadline=None)
@given(tree=random_trees(), failures=FAILURES, data=st.data())
def test_repair_matches_remove_and_attach_reference(
    tree: RoutingTree, failures: list, data
) -> None:
    neighbors = draw_neighbors(data, tree)
    reference = ReferenceTree(root=tree.root, parent=dict(tree.parent))
    for pick in failures:
        non_root = sorted(tree.parent)
        if not non_root:
            break
        failed = non_root[pick % len(non_root)]
        assert tree.repair(failed, neighbors) == reference_repair(reference, failed, neighbors)
        assert tree.parent == reference.parent
        assert tree.nodes == reference.nodes
        assert [tree.level(node) for node in tree.nodes] == [
            reference.level(node) for node in reference.nodes
        ]


def test_repair_asks_only_the_orphans_neighbors() -> None:
    # A hexagon 0-1-2-3-5-4-0 whose tree runs 0-1-2-3 and 0-4-5: node 1's
    # orphan 2 has no eligible neighbour although its child 3 hears 5.
    ring = [0, 1, 2, 3, 5, 4]
    graph = {node: {ring[i - 1], ring[(i + 1) % 6]} for i, node in enumerate(ring)}
    parent = {1: 0, 2: 1, 3: 2, 4: 0, 5: 4}
    tree = RoutingTree(root=0, parent=dict(parent))
    reference = ReferenceTree(root=0, parent=dict(parent))
    assert tree.repair(1, graph.__getitem__) == ({}, [2, 3])
    assert reference_repair(reference, 1, graph.__getitem__) == ({}, [2, 3])
    assert tree.parent == reference.parent == {4: 0, 5: 4}


def test_subtree_cache_is_dropped_by_every_mutation() -> None:
    tree = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 2, 4: 0})
    assert tree.subtree(1) == frozenset({1, 2, 3})
    assert tree.leaf_set == frozenset({3, 4})
    assert tree.repair(2, lambda node: {3: [2, 4]}[node]) == ({3: 4}, [])
    assert tree.subtree(1) == frozenset({1})
    assert tree.subtree(4) == frozenset({4, 3})
    assert tree.subtree(0) == frozenset({0, 1, 3, 4})
    assert tree.leaf_set == frozenset({1, 3})
    assert tree.repair(4, lambda node: {3: [1, 4]}[node]) == ({3: 1}, [])
    assert tree.subtree(1) == frozenset({1, 3})
    assert tree.subtree(0) == frozenset({0, 1, 3})
    assert tree.leaf_set == frozenset({3})
    assert tree.repair(1, no_neighbors) == ({}, [3])
    assert tree.subtree(0) == frozenset({0})
    assert tree.leaves == [0]
    assert not tree.subtree_contains_any(0, {1, 3})

"""Routing-tree abstraction.

The query service constructs a routing tree rooted at the base station as a
query is disseminated (Section 3 of the paper).  In the evaluation the tree
is built before the experiment starts by flooding a setup request from the
root; every node selects the neighbour with the lowest level as its parent
and the tree spans all nodes within 300 m of the root (Section 5).

Two notions of depth appear in the paper and must not be confused:

* the **level** of a node is its hop count from the root (root = 0), and
* the **rank** of a node is the maximum hop count to any of its descendants
  (leaves have rank 0); NTS-SS's idle-listening time and STS-SS's schedule
  are expressed in terms of rank.

Every node registers every query, and each registration asks for the
tree's sources and for which children's subtrees hold one.  The views those
questions read -- the sorted node and leaf lists, their frozensets and each
node's subtree -- are therefore computed once per tree shape: ``_rebuild``
(run after every mutation) stores the node and leaf views and empties the
per-node subtree cache, which fills on first use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..net.topology import Topology


class RoutingError(RuntimeError):
    """Raised for invalid routing-tree operations."""


@dataclass
class RoutingTree:
    """A rooted tree over a subset of the nodes of a topology.

    The tree is mutable: maintenance removes a failed node and re-attaches
    its orphaned subtrees (:meth:`attach_subtree`), after which levels and
    ranks are recomputed.
    """

    root: int
    #: child -> parent (the root is absent from this mapping).
    parent: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._children: Dict[int, List[int]] = {}
        self._levels: Dict[int, int] = {}
        self._ranks: Dict[int, int] = {}
        self._sorted_nodes: List[int] = []
        self._sorted_leaves: List[int] = []
        self._node_set: FrozenSet[int] = frozenset()
        self._leaf_set: FrozenSet[int] = frozenset()
        self._subtrees: Dict[int, FrozenSet[int]] = {}
        self._rebuild()

    # ------------------------------------------------------------------ #
    # derived structure
    # ------------------------------------------------------------------ #

    def _rebuild(self) -> None:
        nodes = set(self.parent) | {self.root}
        for child, parent in self.parent.items():
            if parent not in nodes:
                raise RoutingError(f"parent {parent} of node {child} is not in the tree")
            if child == self.root:
                raise RoutingError("the root cannot have a parent")
        children: Dict[int, List[int]] = {node: [] for node in nodes}
        for child, parent in self.parent.items():
            children[parent].append(child)
        for kids in children.values():
            kids.sort()
        self._children = children

        # Levels by BFS from the root; every node must be reachable.
        levels = {self.root: 0}
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for child in children[node]:
                levels[child] = levels[node] + 1
                queue.append(child)
        if set(levels) != nodes:
            unreachable = sorted(nodes - set(levels))
            raise RoutingError(f"nodes {unreachable} are not reachable from root {self.root}")
        self._levels = levels

        # Ranks (subtree heights) bottom-up, processing deepest levels first.
        ranks: Dict[int, int] = {}
        for node in sorted(nodes, key=lambda n: levels[n], reverse=True):
            kids = children[node]
            ranks[node] = 0 if not kids else 1 + max(ranks[kid] for kid in kids)
        self._ranks = ranks

        # Views read by every query registration, valid until the next mutation.
        sorted_nodes = sorted(nodes)
        self._sorted_nodes = sorted_nodes
        self._sorted_leaves = [node for node in sorted_nodes if not children[node]]
        self._node_set = frozenset(sorted_nodes)
        self._leaf_set = frozenset(self._sorted_leaves)
        self._subtrees = {}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> List[int]:
        """All node ids in the tree, sorted (a fresh list the caller may mutate)."""
        return list(self._sorted_nodes)

    @property
    def node_set(self) -> FrozenSet[int]:
        """All node ids in the tree, as a frozenset shared until the next mutation."""
        return self._node_set

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._levels

    def __len__(self) -> int:
        return len(self._levels)

    def children(self, node_id: int) -> List[int]:
        """The children of ``node_id`` (sorted, possibly empty)."""
        self._require(node_id)
        return list(self._children[node_id])

    def parent_of(self, node_id: int) -> Optional[int]:
        """The parent of ``node_id`` (``None`` for the root)."""
        self._require(node_id)
        return self.parent.get(node_id)

    def level(self, node_id: int) -> int:
        """Hop count from the root (root has level 0)."""
        self._require(node_id)
        return self._levels[node_id]

    def rank(self, node_id: int) -> int:
        """Maximum hop count to any descendant (leaves have rank 0)."""
        self._require(node_id)
        return self._ranks[node_id]

    @property
    def max_rank(self) -> int:
        """The rank of the root: the ``M`` of the STS local-deadline formula."""
        return self._ranks[self.root]

    @property
    def depth(self) -> int:
        """Maximum level of any node (equals :attr:`max_rank`)."""
        return max(self._levels.values())

    def is_leaf(self, node_id: int) -> bool:
        """Whether ``node_id`` has no children."""
        self._require(node_id)
        return not self._children[node_id]

    @property
    def leaves(self) -> List[int]:
        """All leaf nodes, sorted (a fresh list the caller may mutate)."""
        return list(self._sorted_leaves)

    @property
    def leaf_set(self) -> FrozenSet[int]:
        """All leaf nodes, as a frozenset shared until the next mutation."""
        return self._leaf_set

    @property
    def interior_nodes(self) -> List[int]:
        """All non-leaf nodes, sorted."""
        return [node for node in self._sorted_nodes if self._children[node]]

    def subtree(self, node_id: int) -> FrozenSet[int]:
        """All nodes in the subtree rooted at ``node_id`` (including itself).

        Traversed once per node per tree shape, then served from a cache.
        """
        cached = self._subtrees.get(node_id)
        if cached is not None:
            return cached
        self._require(node_id)
        result: Set[int] = set()
        queue = deque([node_id])
        while queue:
            node = queue.popleft()
            result.add(node)
            queue.extend(self._children[node])
        subtree = self._subtrees[node_id] = frozenset(result)
        return subtree

    def subtree_contains_any(self, node_id: int, targets: Iterable[int]) -> bool:
        """Whether the subtree under ``node_id`` contains any of ``targets``."""
        return not self.subtree(node_id).isdisjoint(targets)

    def _require(self, node_id: int) -> None:
        if node_id not in self._levels:
            raise RoutingError(f"node {node_id} is not part of the routing tree")

    # ------------------------------------------------------------------ #
    # mutation (protocol maintenance)
    # ------------------------------------------------------------------ #

    def remove_node(self, node_id: int) -> List[int]:
        """Remove a single failed node; returns its orphaned children.

        The orphans (and their subtrees) are detached from the tree until
        maintenance re-parents them with :meth:`attach_subtree` (see
        :mod:`repro.routing.maintenance`).
        """
        self._require(node_id)
        if node_id == self.root:
            raise RoutingError("cannot remove the root")
        orphans = list(self._children[node_id])
        for orphan in orphans:
            # Detach the whole orphan subtree; maintenance will re-attach it.
            for member in self.subtree(orphan):
                self.parent.pop(member, None)
        self.parent.pop(node_id, None)
        self._rebuild()
        return orphans

    def attach_subtree(
        self, subtree_root: int, new_parent: int, internal_edges: Dict[int, int]
    ) -> None:
        """Attach a detached subtree under ``new_parent``.

        ``internal_edges`` maps each subtree member (other than
        ``subtree_root``) to its parent inside the subtree, preserving the
        subtree's original shape.
        """
        self._require(new_parent)
        if subtree_root in self._levels:
            raise RoutingError(f"node {subtree_root} is already part of the tree")
        self.parent[subtree_root] = new_parent
        for child, parent in internal_edges.items():
            self.parent[child] = parent
        self._rebuild()


def build_routing_tree(
    topology: Topology,
    root: Optional[int] = None,
    max_distance_from_root: Optional[float] = None,
) -> RoutingTree:
    """Construct the shortest-hop routing tree used by the paper's experiments.

    The root defaults to the node closest to the centre of the area.  Nodes
    are attached to the neighbour with the lowest level (breadth-first
    search, ties broken by the lowest node id).  When
    ``max_distance_from_root`` is given, only nodes within that Euclidean
    distance of the root are spanned -- the paper uses 300 m.
    """
    if root is None:
        root = topology.center_node()
    if root not in topology.positions:
        raise RoutingError(f"root {root} is not part of the topology")

    eligible = set(topology.node_ids)
    if max_distance_from_root is not None:
        eligible = {
            node
            for node in eligible
            if node == root or topology.distance(root, node) <= max_distance_from_root
        }

    parent: Dict[int, int] = {}
    visited = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor in sorted(topology.neighbors(node)):
            if neighbor in visited or neighbor not in eligible:
                continue
            parent[neighbor] = node
            visited.add(neighbor)
            queue.append(neighbor)
    return RoutingTree(root=root, parent=parent)

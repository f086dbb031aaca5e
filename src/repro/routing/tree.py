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
(run by the constructor and by :meth:`RoutingTree.repair`) stores the node
and leaf views and empties the per-node subtree cache, which fills on first
use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..net.topology import Topology


class RoutingError(RuntimeError):
    """Raised for invalid routing-tree operations."""


@dataclass
class RoutingTree:
    """A rooted tree over a subset of the nodes of a topology.

    Its one mutation is :meth:`repair`: a failed node leaves the tree and
    its orphaned subtrees re-attach, after which levels and ranks are
    recomputed.
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
    # mutation (node failure, Section 4.3)
    # ------------------------------------------------------------------ #

    def repair(
        self, failed: int, neighbors: Callable[[int], Iterable[int]]
    ) -> Tuple[Dict[int, int], List[int]]:
        """Remove the failed node ``failed`` and re-attach its orphaned subtrees.

        Orphans are handled in :meth:`children` order.  Each takes the
        neighbour (``neighbors(orphan)``, the physical graph) that is in the
        tree and outside its own subtree with the lowest ``(level, id)``, and
        its subtree keeps its shape; an orphan re-attached earlier counts,
        with its subtree, for the orphans after it.  Only the orphan's own
        neighbours are asked, so a subtree whose members could reach the
        tree but whose root cannot stays out.

        Returns ``(reattached, detached)``: orphan -> new parent, and every
        node (sorted) of the orphan subtrees that found no parent, which are
        no longer part of the tree.
        """
        self._require(failed)
        if failed == self.root:
            raise RoutingError("cannot repair a failure of the root")
        old_levels = self._levels
        orphans = self._children[failed]
        subtrees = [self.subtree(orphan) for orphan in orphans]
        # Levels of the nodes in the tree; the failed node and the orphan
        # subtrees are out until re-attached.
        levels = dict(old_levels)
        del levels[failed]
        del self.parent[failed]
        for members in subtrees:
            for member in members:
                del levels[member]
        reattached: Dict[int, int] = {}
        detached: List[int] = []
        for orphan, members in zip(orphans, subtrees):
            candidates = [node for node in neighbors(orphan) if node in levels]
            if not candidates:
                detached.extend(members)
                continue
            new_parent = min(candidates, key=lambda node: (levels[node], node))
            self.parent[orphan] = new_parent
            reattached[orphan] = new_parent
            shift = levels[new_parent] + 1 - old_levels[orphan]
            for member in members:
                levels[member] = old_levels[member] + shift
        for member in detached:
            del self.parent[member]
        self._rebuild()
        return reattached, sorted(detached)


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

"""Node placement and radio connectivity.

The paper's scenario places 80 nodes uniformly at random in a 500 x 500 m
area with a 125 m communication range and roots the routing tree at the node
closest to the centre (Section 5).  This module provides that placement
(:meth:`Topology.random`, redrawn until connected by
:func:`generate_connected_random_topology`) plus the grid/line placements
used by tests and chain experiments, and exposes the resulting disk-graph
connectivity as neighbour sets, plus the multi-hop queries built on them
(:meth:`Topology.is_connected`, :meth:`Topology.connected_component_of`).

A placement is static: the neighbour sets are built once, when the
topology is constructed, and never change.  A node failure does not edit
the topology; the network unregisters the failed node from the channel,
and connectivity questions about the survivors pass the failed nodes to
:meth:`Topology.connected_component_of` as ``excluded``.
:class:`FailureSchedule` travels with a scenario and describes scheduled
permanent node failures that the experiment runner turns into simulator
events.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..sim.rng import RandomStreams


@dataclass(frozen=True)
class Position:
    """A 2-D node position in metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class Topology:
    """Static node placement plus disk-model connectivity.

    Attributes
    ----------
    positions:
        Mapping from node id to :class:`Position`.
    comm_range:
        Communication range in metres (disk model).
    area:
        ``(width, height)`` of the deployment area in metres.
    """

    positions: Dict[int, Position]
    comm_range: float
    area: Tuple[float, float] = (500.0, 500.0)
    _neighbors: Dict[int, FrozenSet[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.comm_range <= 0:
            raise ValueError(f"communication range must be positive, got {self.comm_range!r}")
        nodes = sorted(self.positions)
        neighbor_map: Dict[int, set] = {node: set() for node in nodes}
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if self.positions[a].distance_to(self.positions[b]) <= self.comm_range:
                    neighbor_map[a].add(b)
                    neighbor_map[b].add(a)
        self._neighbors = {node: frozenset(others) for node, others in neighbor_map.items()}

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        num_nodes: int,
        area: Tuple[float, float] = (500.0, 500.0),
        comm_range: float = 125.0,
        streams: Optional[RandomStreams] = None,
        seed: int = 0,
    ) -> "Topology":
        """Place ``num_nodes`` uniformly at random in ``area``.

        Matches the paper's experimental setup when called with the default
        arguments and ``num_nodes=80``.
        """
        if num_nodes <= 0:
            raise ValueError(f"need at least one node, got {num_nodes}")
        rng = (streams or RandomStreams(seed)).get("topology.placement")
        width, height = area
        positions = {
            node_id: Position(rng.uniform(0.0, width), rng.uniform(0.0, height))
            for node_id in range(num_nodes)
        }
        return cls(positions=positions, comm_range=comm_range, area=area)

    @classmethod
    def grid(
        cls,
        rows: int,
        cols: int,
        spacing: float,
        comm_range: Optional[float] = None,
    ) -> "Topology":
        """Regular ``rows x cols`` grid with ``spacing`` metres between nodes.

        The default communication range is 1.2 x spacing so that only the
        four axis-aligned neighbours are connected (diagonals are at
        1.41 x spacing and stay out of range).
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        positions = {}
        node_id = 0
        for row in range(rows):
            for col in range(cols):
                positions[node_id] = Position(col * spacing, row * spacing)
                node_id += 1
        if comm_range is None:
            comm_range = spacing * 1.2
        area = (max(1.0, (cols - 1) * spacing), max(1.0, (rows - 1) * spacing))
        return cls(positions=positions, comm_range=comm_range, area=area)

    @classmethod
    def line(cls, num_nodes: int, spacing: float, comm_range: Optional[float] = None) -> "Topology":
        """A line of ``num_nodes`` nodes; handy for multi-hop chain tests."""
        return cls.grid(rows=1, cols=num_nodes, spacing=spacing, comm_range=comm_range)

    @classmethod
    def from_positions(
        cls,
        coordinates: Sequence[Tuple[float, float]],
        comm_range: float,
        area: Optional[Tuple[float, float]] = None,
    ) -> "Topology":
        """Build a topology from explicit ``(x, y)`` coordinates."""
        positions = {i: Position(x, y) for i, (x, y) in enumerate(coordinates)}
        if area is None:
            width = max((p.x for p in positions.values()), default=1.0)
            height = max((p.y for p in positions.values()), default=1.0)
            area = (max(width, 1.0), max(height, 1.0))
        return cls(positions=positions, comm_range=comm_range, area=area)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def node_ids(self) -> List[int]:
        """Sorted list of node identifiers."""
        return sorted(self.positions)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the topology."""
        return len(self.positions)

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance in metres between nodes ``a`` and ``b``."""
        return self.positions[a].distance_to(self.positions[b])

    def in_range(self, a: int, b: int) -> bool:
        """Whether nodes ``a`` and ``b`` can hear each other (disk model)."""
        if a == b:
            return False
        return self.distance(a, b) <= self.comm_range

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        """Identifiers of all nodes within communication range of ``node_id``."""
        return self._neighbors[node_id]

    def center_node(self) -> int:
        """The node closest to the centre of the deployment area.

        The paper roots the routing tree at this node.
        """
        cx, cy = self.area[0] / 2.0, self.area[1] / 2.0
        center = Position(cx, cy)
        return min(self.node_ids, key=lambda n: (self.positions[n].distance_to(center), n))

    def is_connected(self) -> bool:
        """Whether the connectivity graph is a single connected component."""
        if not self.positions:
            return True
        return len(self.connected_component_of(next(iter(self.positions)))) == len(self.positions)

    def connected_component_of(
        self, node_id: int, excluded: AbstractSet[int] = frozenset()
    ) -> FrozenSet[int]:
        """All nodes reachable from ``node_id`` over multi-hop links (BFS).

        Nodes in ``excluded`` (failed ones) neither join the component nor
        relay; ``node_id`` itself is always in it.
        """
        neighbors = self._neighbors
        reached = {node_id}
        queue = deque([node_id])
        while queue:
            for other in neighbors[queue.popleft()]:
                if other not in reached and other not in excluded:
                    reached.add(other)
                    queue.append(other)
        return frozenset(reached)


# ---------------------------------------------------------------------------
# Serializable scenario spec: which nodes to fail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailureSchedule:
    """Scheduled permanent node failures (churn) applied during a run.

    Two ingredients, combinable:

    * ``fraction`` of the eligible nodes (the runner passes the routing
      tree's non-root nodes) fail at times drawn uniformly from ``window``;
      victims and times come from the run's seeded ``scenario.failures``
      stream, so the schedule is deterministic per seed and hashes cleanly
      into job digests,
    * ``explicit`` pins concrete ``(time, node_id)`` failures for targeted
      experiments.
    """

    fraction: float = 0.0
    window: Tuple[float, float] = (0.0, 0.0)
    explicit: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"failure fraction must be in [0, 1), got {self.fraction!r}")
        low, high = self.window
        if low < 0 or high < low:
            raise ValueError(f"invalid failure window {self.window!r}")
        normalized = tuple(sorted((float(t), int(n)) for t, n in self.explicit))
        if any(t < 0 for t, _ in normalized):
            raise ValueError("explicit failure times must be non-negative")
        object.__setattr__(self, "explicit", normalized)

    @property
    def is_empty(self) -> bool:
        """Whether this schedule fails no nodes at all."""
        return self.fraction == 0.0 and not self.explicit

    def materialize(
        self, candidates: Sequence[int], rng: random.Random
    ) -> List[Tuple[float, int]]:
        """Concrete ``(time, node_id)`` failures for one run, sorted by time.

        A non-zero fraction fails at least one candidate, so sweeping small
        fractions on small networks still injects churn.
        """
        events = list(self.explicit)
        if self.fraction > 0.0 and candidates:
            count = min(len(candidates), max(1, round(self.fraction * len(candidates))))
            victims = rng.sample(sorted(candidates), count)
            low, high = self.window
            events.extend((rng.uniform(low, high), victim) for victim in victims)
        return sorted(events)


# ---------------------------------------------------------------------------
# Connected-topology generation
# ---------------------------------------------------------------------------

def generate_connected_random_topology(
    num_nodes: int,
    area: Tuple[float, float] = (500.0, 500.0),
    comm_range: float = 125.0,
    streams: Optional[RandomStreams] = None,
    seed: int = 0,
    max_attempts: int = 200,
) -> Topology:
    """Draw uniform-random placements until one is connected.

    Attempt ``i`` draws from ``streams.fork(i)``, so the placement is a
    function of the seed alone.
    """
    base = streams or RandomStreams(seed)
    for attempt in range(max_attempts):
        candidate = Topology.random(
            num_nodes=num_nodes, area=area, comm_range=comm_range, streams=base.fork(attempt)
        )
        if candidate.is_connected():
            return candidate
    raise RuntimeError(
        f"could not generate a connected topology in {max_attempts} attempts; "
        "increase density or range"
    )

"""Distributed, flood-based routing-tree construction.

The paper's query service builds the routing tree by flooding a setup
request from the root; every node picks the sender with the lowest level as
its parent (Section 5).  :class:`FloodSetup` runs that protocol over the
simulated network, which lets tests confirm that the distributed
construction and the centralized :func:`~repro.routing.tree.build_routing_tree`
builder agree (they both produce shortest-hop trees, possibly with different
tie-breaks).

The experiments use the centralized builder for determinism and speed; the
flooded construction is exercised by dedicated tests and by the
``tree_setup_flood`` example.
"""

from __future__ import annotations

from typing import Dict

from ..net.addresses import BROADCAST
from ..net.node import Network
from ..net.packet import Packet, SetupPacket
from ..sim.engine import Simulator
from .tree import RoutingError, RoutingTree

#: Upper bound of the uniform random delay before a node rebroadcasts (s).
REBROADCAST_JITTER = 0.05


class FloodSetup:
    """Runs a flooded tree-setup round on a network.

    Each node rebroadcasts the first setup request it hears (with an
    incremented level) after a small random delay to limit collisions, and
    adopts the sender with the smallest advertised level as its parent.
    """

    def __init__(self, sim: Simulator, network: Network, root: int) -> None:
        self._sim = sim
        self._network = network
        self.root = root
        self._rng = sim.streams.get("routing.flood_jitter")
        #: node -> (best level heard, parent chosen)
        self._best_level: Dict[int, int] = {}
        self._parent: Dict[int, int] = {}
        self._rebroadcasted: Dict[int, bool] = {}
        for node in network:
            node.mac.set_receive_callback(
                lambda packet, node_id=node.id: self._on_receive(node_id, packet)
            )

    # ------------------------------------------------------------------ #

    def start(self, at: float = 0.0) -> None:
        """Begin the flood by broadcasting the root's setup request at ``at``."""
        self._best_level[self.root] = 0
        self._rebroadcasted[self.root] = True
        self._sim.schedule_at(at, self._broadcast_setup, self.root, 0)

    def _broadcast_setup(self, node_id: int, level: int) -> None:
        packet = SetupPacket(src=node_id, dst=BROADCAST, level=level, created_at=self._sim.now)
        self._network.node(node_id).mac.send(packet)

    def _on_receive(self, node_id: int, packet: Packet) -> None:
        if not isinstance(packet, SetupPacket):
            return
        advertised_level = packet.level
        current_best = self._best_level.get(node_id)
        if node_id == self.root:
            return
        if current_best is None or advertised_level < current_best:
            self._best_level[node_id] = advertised_level
            self._parent[node_id] = packet.src
        if not self._rebroadcasted.get(node_id):
            self._rebroadcasted[node_id] = True
            delay = self._rng.uniform(0.0, REBROADCAST_JITTER)
            self._sim.schedule_in(
                delay, self._broadcast_setup, node_id, self._best_level[node_id] + 1
            )

    # ------------------------------------------------------------------ #

    def result(self) -> RoutingTree:
        """Build the :class:`RoutingTree` from the parents chosen so far.

        Raises :class:`RoutingError` when no node besides the root joined
        (e.g. the flood has not been run yet).
        """
        if not self._parent and len(self._network) > 1:
            raise RoutingError("flooded setup produced no parent assignments")
        return RoutingTree(root=self.root, parent=dict(self._parent))

    def coverage(self) -> float:
        """Fraction of reachable nodes that joined the tree."""
        reachable = self._network.topology.connected_component_of(self.root)
        if not reachable:
            return 0.0
        joined = {self.root} | set(self._parent)
        return len(joined & reachable) / len(reachable)

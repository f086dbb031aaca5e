"""ESSAT protocol assembly: shaper + Safe Sleep + query service per node.

An *ESSAT protocol* is the combination of a traffic shaper and the Safe
Sleep scheduler (Section 4): NTS-SS, STS-SS and DTS-SS.  This module wires
those pieces together on each node of a network and exposes a small
suite-level API the experiment harness uses:

* :class:`EssatNode` -- the per-node protocol instance,
* :class:`EssatProtocolSuite` -- installs a protocol on every node of a
  routing tree, registers queries everywhere, handles node failures
  (:meth:`EssatProtocolSuite.fail_node`, Section 4.3), and exposes the
  per-node shapers/schedulers for metrics collection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Type

from ..net.node import Network, Node
from ..query.query import QuerySpec
from ..query.service import QueryService, RootDeliveryCallback
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator
from .dts import DynamicTrafficShaper
from .nts import NoTrafficShaping
from .safe_sleep import SafeSleep
from .shaper import TrafficShaper
from .sts import StaticTrafficShaper
from .timing import TimingTable

#: Shaper name -> class, for configuration-driven protocol selection.
SHAPER_CLASSES: Dict[str, Type[TrafficShaper]] = {
    "nts": NoTrafficShaping,
    "sts": StaticTrafficShaper,
    "dts": DynamicTrafficShaper,
}


def protocol_name(shaper_name: str) -> str:
    """The paper's protocol name for a shaper, e.g. ``"dts"`` -> ``"DTS-SS"``."""
    return f"{shaper_name.upper()}-SS"


class EssatNode:
    """One node running an ESSAT protocol."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        tree: RoutingTree,
        shaper_cls: Type[TrafficShaper],
        *,
        break_even_time: Optional[float] = None,
        setup_until: float = 0.0,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.tree = tree
        self.table = TimingTable()
        self.shaper: TrafficShaper = shaper_cls(
            sim,
            self.table,
            node.id,
            send_control=node.mac.send,
            on_child_failure=self._on_child_failure,
        )
        self.service = QueryService(
            sim,
            node,
            tree,
            policy=self.shaper,
            on_root_delivery=on_root_delivery,
        )
        self.safe_sleep = SafeSleep(
            sim,
            node.radio,
            node.mac,
            self.table,
            break_even_time=break_even_time,
            setup_until=setup_until,
        )
        node.attach_power_manager(self)

    def _on_child_failure(self, query_id: int, child: int) -> None:
        """A child missed too many consecutive reports: drop the dependency.

        This implements the parent-side recovery of Section 4.3 ("the parent
        removes its dependency on the failed node" and "the stale expected
        send and reception times of the failed node used by SS are removed").
        """
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, "essat.child_declared_failed", node=self.node.id, child=child
            )
        self.service.remove_child_dependency(child)

    def register_query(self, query: QuerySpec) -> None:
        """Register a query at this node."""
        self.service.register_query(query)

    @property
    def name(self) -> str:
        """The protocol name, e.g. ``"DTS-SS"``."""
        return f"{self.shaper.name}-SS"


class EssatProtocolSuite:
    """An ESSAT protocol installed on every node of a routing tree."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: RoutingTree,
        shaper: str = "dts",
        *,
        break_even_time: Optional[float] = None,
        setup_until: float = 0.0,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        shaper_key = shaper.lower()
        if shaper_key not in SHAPER_CLASSES:
            raise ValueError(
                f"unknown shaper {shaper!r}; expected one of {sorted(SHAPER_CLASSES)}"
            )
        self.sim = sim
        self.network = network
        self.tree = tree
        self.shaper_name = shaper_key
        self.nodes: Dict[int, EssatNode] = {}
        for node_id in tree.nodes:
            self.nodes[node_id] = EssatNode(
                sim,
                network.node(node_id),
                tree,
                SHAPER_CLASSES[shaper_key],
                break_even_time=break_even_time,
                setup_until=setup_until,
                on_root_delivery=on_root_delivery,
            )

    @property
    def name(self) -> str:
        """The protocol name, e.g. ``"DTS-SS"``."""
        return protocol_name(self.shaper_name)

    def fail_node(self, node_id: int) -> Tuple[Dict[int, int], List[int]]:
        """Fail ``node_id`` permanently and resynchronise the protocol (Section 4.3).

        The node leaves the channel and is retired.  The tree is repaired
        (:meth:`~repro.routing.tree.RoutingTree.repair`), and the nodes the
        repair cut off are retired too, though they stay on the channel.
        The failed node's parent drops its dependency; each new parent
        adopts its orphan, which (under DTS) forces one phase update; and
        every node whose rank changed, then every re-attached orphan,
        refreshes its shaper (STS recomputes its schedule, NTS needs
        nothing).  Returns the repair's ``(reattached, detached)``.
        """
        tree = self.tree
        old_parent = tree.parent_of(node_id)
        ranks_before = {node: tree.rank(node) for node in tree.nodes}
        self.network.fail_node(node_id)
        self._retire(node_id)
        reattached, detached = tree.repair(node_id, self.network.topology.neighbors)
        for node in detached:
            self._retire(node)
        if old_parent is not None:
            self.nodes[old_parent].service.remove_child_dependency(node_id)
        for orphan, new_parent in reattached.items():
            parent, child = self.nodes[new_parent], self.nodes[orphan]
            parent.service.add_child_dependency(orphan)
            for query in child.service.registered_queries():
                parent.shaper.child_added(query.query_id, orphan, child_rank=tree.rank(orphan))
            child.shaper.parent_changed()
        for node in tree.nodes:
            if tree.rank(node) != ranks_before[node]:
                self.nodes[node].shaper.refresh_topology(tree)
        # An orphan refreshes even when its rank held: its parent (for STS
        # the schedule anchor) moved.
        for orphan in reattached:
            self.nodes[orphan].shaper.refresh_topology(tree)
        return reattached, detached

    def _retire(self, node_id: int) -> None:
        """Take ``node_id`` out of the suite: its queries stop and it never sleeps."""
        retired = self.nodes.pop(node_id)
        retired.safe_sleep.enabled = False
        retired.service.shutdown()

    def register_query(self, query: QuerySpec) -> None:
        """Register ``query`` on every node of the routing tree."""
        for essat_node in self.nodes.values():
            essat_node.register_query(query)

    def register_queries(self, queries: Iterable[QuerySpec]) -> None:
        """Register several queries on every node."""
        for query in queries:
            self.register_query(query)

    def node(self, node_id: int) -> EssatNode:
        """The per-node protocol instance for ``node_id``."""
        return self.nodes[node_id]

    def shapers(self) -> List[TrafficShaper]:
        """All per-node shaper instances (for overhead accounting)."""
        return [essat_node.shaper for essat_node in self.nodes.values()]

    def total_piggyback_overhead_bits(self) -> int:
        """Total phase-update bits piggybacked across the network (DTS only)."""
        return sum(shaper.stats.piggyback_overhead_bits for shaper in self.shapers())

    def total_reports_observed(self) -> int:
        """Total data reports handled by the shapers across the network."""
        return sum(shaper.stats.reports_observed for shaper in self.shapers())

    def overhead_bits_per_report(self) -> float:
        """Network-wide piggybacked overhead per data report (Section 4.2.3)."""
        reports = self.total_reports_observed()
        if reports == 0:
            return 0.0
        return self.total_piggyback_overhead_bits() / reports

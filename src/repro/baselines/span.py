"""SPAN baseline: an always-on communication backbone.

Span [3] elects a connected set of coordinators that stay awake to route
traffic while the remaining nodes sleep.  The paper's experimental setup
(Section 5) maps this onto the aggregation tree: every non-leaf node of the
routing tree is an active (coordinator) node, every leaf is a sleeping node,
and -- as in the paper -- the leaf nodes run NTS(-SS) rather than PSM
because that gives SPAN better energy and latency numbers.

The consequences the paper measures follow directly:

* query latency is low (the backbone is always listening, so reports
  propagate with plain CSMA delay), but
* the average duty cycle is the highest of all protocols because the entire
  interior of the tree never sleeps, regardless of workload.

Coordinators broadcast a periodic coordinator announcement so the backbone
maintenance overhead appears in the traffic mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..core.nts import NoTrafficShaping
from ..core.protocol import EssatNode
from ..net.addresses import BROADCAST
from ..net.node import Network
from ..net.packet import CoordinatorAnnouncement
from ..query.query import QuerySpec
from ..query.service import GreedySendPolicy, QueryService, RootDeliveryCallback
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator


@dataclass(frozen=True)
class SpanConfig:
    """Parameters of the SPAN backbone."""

    #: Interval between coordinator announcements (backbone maintenance).
    announcement_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.announcement_interval <= 0:
            raise ValueError(
                f"announcement interval must be positive, got {self.announcement_interval!r}"
            )


class SpanSuite:
    """SPAN installed on every node of a routing tree."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: RoutingTree,
        *,
        config: Optional[SpanConfig] = None,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.tree = tree
        self.config = config if config is not None else SpanConfig()
        #: Query service of each backbone (interior) node.
        self.backbone_services: Dict[int, QueryService] = {}
        #: ESSAT (NTS-SS) instances of the leaf nodes.
        self.leaf_nodes: Dict[int, EssatNode] = {}
        self.coordinator_announcements = 0

        for node_id in tree.nodes:
            node = network.node(node_id)
            if tree.is_leaf(node_id):
                self.leaf_nodes[node_id] = EssatNode(
                    sim,
                    node,
                    tree,
                    NoTrafficShaping,
                    on_root_delivery=on_root_delivery,
                )
            else:
                self.backbone_services[node_id] = QueryService(
                    sim,
                    node,
                    tree,
                    policy=GreedySendPolicy(),
                    on_root_delivery=on_root_delivery,
                )
                node.attach_power_manager(self)
                sim.call_every(
                    self.config.announcement_interval,
                    lambda node_id=node_id: self._announce(node_id),
                    start=self.config.announcement_interval,
                )

    def _announce(self, node_id: int) -> None:
        announcement = CoordinatorAnnouncement(
            src=node_id, dst=BROADCAST, created_at=self.sim.now
        )
        self.network.node(node_id).mac.send(announcement)
        self.coordinator_announcements += 1

    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Protocol name used in reports."""
        return "SPAN"

    @property
    def coordinators(self) -> list[int]:
        """Node ids forming the always-on backbone."""
        return sorted(self.backbone_services)

    def register_query(self, query: QuerySpec) -> None:
        """Register ``query`` on every node."""
        for service in self.backbone_services.values():
            service.register_query(query)
        for essat_node in self.leaf_nodes.values():
            essat_node.register_query(query)

    def register_queries(self, queries: Iterable[QuerySpec]) -> None:
        """Register several queries on every node."""
        for query in queries:
            self.register_query(query)

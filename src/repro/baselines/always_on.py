"""Always-on baseline: no power management at all.

Every radio stays in idle listening for the whole run.  This is the upper
bound on energy consumption (duty cycle 1.0) and the lower bound on query
latency, useful as a sanity reference for the other protocols.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..net.node import Network
from ..query.service import GreedySendPolicy, ProtocolSuite, QueryService, RootDeliveryCallback
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator


class AlwaysOnSuite(ProtocolSuite):
    """Query service on every node, radios permanently on."""

    name = "ALWAYS-ON"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: RoutingTree,
        *,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        super().__init__(sim, network, tree)
        self.services: Dict[int, QueryService] = {}
        for node_id in tree.nodes:
            self.services[node_id] = QueryService(
                sim,
                network.node(node_id),
                tree,
                policy=GreedySendPolicy(),
                on_root_delivery=on_root_delivery,
            )

    def query_services(self) -> Iterable[QueryService]:
        return self.services.values()

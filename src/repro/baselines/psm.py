"""PSM baseline: IEEE 802.11 power-save mode with traffic announcements.

The paper compares against PSM with the extensions proposed in Span [3]:
stations synchronise on a beacon period, stay awake for an ATIM window at
the start of every beacon interval, announce buffered traffic during that
window, and advertise/deliver the announced traffic during an advertisement
window; stations with no traffic go back to sleep after the ATIM window.
The paper configures a 0.2 s beacon period, a 0.025 s ATIM window and a
0.1 s advertisement window.

The model here keeps the properties that matter for the comparison:

* every node is awake for at least the ATIM window of every beacon interval
  (the protocol-overhead energy floor the paper points out),
* data reports are buffered until the next beacon interval and announced
  with an ATIM frame, so per-hop latency is roughly one beacon period --
  which is why PSM's query latencies are an order of magnitude above the
  ESSAT protocols' in Figures 6 and 7,
* nodes that sent or received an announcement stay awake through the
  advertisement window to exchange the data, then sleep until the next
  beacon.

Beacon transmission itself is abstracted away (nodes are assumed
synchronised, as in ns-2's PSM model); ATIM frames are real packets that
contend on the shared channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from ..net.node import Network, Node
from ..net.packet import AtimPacket, Packet
from ..query.query import QuerySpec
from ..query.service import GreedySendPolicy, ProtocolSuite, QueryService, RootDeliveryCallback
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator
from ..sim.events import EventPriority


@dataclass(frozen=True)
class PsmConfig:
    """Parameters of the PSM schedule (paper defaults)."""

    beacon_period: float = 0.2
    atim_window: float = 0.025
    advertisement_window: float = 0.1
    sleep_retry_interval: float = 0.001

    def __post_init__(self) -> None:
        if self.beacon_period <= 0:
            raise ValueError(f"beacon period must be positive, got {self.beacon_period!r}")
        if not 0 < self.atim_window < self.beacon_period:
            raise ValueError("ATIM window must be positive and shorter than the beacon period")
        if self.atim_window + self.advertisement_window > self.beacon_period:
            raise ValueError("ATIM + advertisement windows must fit inside the beacon period")

    def next_beacon(self, time: float) -> float:
        """Start of the first beacon interval at or after ``time``."""
        intervals = int(time / self.beacon_period)
        candidate = intervals * self.beacon_period
        if candidate < time:
            candidate += self.beacon_period
        return candidate

    @property
    def data_phase_end_offset(self) -> float:
        """Offset from the beacon at which announced traffic must be done."""
        return self.atim_window + self.advertisement_window


class PsmSendPolicy(GreedySendPolicy):
    """Send policy that defers data reports to the next beacon interval.

    PSM cannot transmit to a sleeping receiver outside an announced interval,
    so a report that becomes ready mid-interval is buffered until just after
    the next ATIM window and announced to the parent at the beacon.
    """

    def __init__(self, config: PsmConfig, manager: "PsmPowerManager") -> None:
        super().__init__()
        self._config = config
        self._manager = manager
        self._parent: Optional[int] = None

    def query_registered(self, query: QuerySpec, *, node_id: int = 0, tree=None, **kwargs) -> None:
        super().query_registered(query, node_id=node_id, tree=tree, **kwargs)
        if tree is not None and node_id in tree:
            self._parent = tree.parent_of(node_id)

    def send_time(self, query_id: int, report_index: int, ready_time: float) -> float:
        beacon = self._config.next_beacon(ready_time)
        send_at = beacon + self._config.atim_window
        if self._parent is not None:
            self._manager.announce_traffic_at(beacon, self._parent)
        return send_at

    def control_received(self, packet: Packet) -> None:
        if isinstance(packet, AtimPacket):
            self._manager.atim_received()


class PsmPowerManager:
    """Drives one node's radio through the PSM beacon schedule."""

    def __init__(self, sim: Simulator, node: Node, config: PsmConfig) -> None:
        self._sim = sim
        self._node = node
        self.config = config
        #: Beacon start times at which this node must announce traffic,
        #: mapped to the destinations to announce to.
        self._pending_announcements: Dict[float, Set[int]] = {}
        self._stay_awake_this_interval = False
        self._in_sleep_phase = False
        self.atims_sent = 0
        self.atims_received = 0
        sim.schedule_at(0.0, self._on_beacon, priority=EventPriority.HIGH)

    # ------------------------------------------------------------------ #
    # interface used by the send policy
    # ------------------------------------------------------------------ #

    def announce_traffic_at(self, beacon_time: float, destination: int) -> None:
        """Remember that buffered traffic for ``destination`` exists at ``beacon_time``."""
        self._pending_announcements.setdefault(beacon_time, set()).add(destination)

    def atim_received(self) -> None:
        """An ATIM addressed to this node arrived: stay awake for the data phase."""
        self.atims_received += 1
        self._stay_awake_this_interval = True

    # ------------------------------------------------------------------ #
    # beacon schedule
    # ------------------------------------------------------------------ #

    def _on_beacon(self) -> None:
        now = self._sim.now
        self._in_sleep_phase = False
        self._stay_awake_this_interval = False
        self._node.radio.wake_up()

        destinations = self._pending_announcements.pop(round(now, 9), None)
        if destinations is None:
            # Announcements are keyed by the beacon time computed by the send
            # policy; tolerate floating-point drift by also matching any key
            # within half a beacon period.
            for key in list(self._pending_announcements):
                if abs(key - now) < self.config.beacon_period / 2:
                    destinations = self._pending_announcements.pop(key)
                    break
        if destinations:
            self._stay_awake_this_interval = True
            for destination in sorted(destinations):
                atim = AtimPacket(src=self._node.id, dst=destination, created_at=now)
                self._node.mac.send(atim)
                self.atims_sent += 1

        self._sim.schedule_in(
            self.config.atim_window, self._on_atim_window_end, priority=EventPriority.HIGH
        )
        self._sim.schedule_in(
            self.config.beacon_period, self._on_beacon, priority=EventPriority.HIGH
        )

    def _on_atim_window_end(self) -> None:
        if self._stay_awake_this_interval:
            # Stay up for the advertisement/data phase, then sleep.
            self._sim.schedule_in(
                self.config.advertisement_window, self._enter_sleep_phase, priority=EventPriority.HIGH
            )
        else:
            self._enter_sleep_phase()

    def _enter_sleep_phase(self) -> None:
        self._in_sleep_phase = True
        self._try_sleep()

    def _try_sleep(self) -> None:
        if not self._in_sleep_phase:
            return
        if self._node.radio.is_asleep:
            return
        if self._node.mac.has_pending:
            # Finish the announced transfers first.
            self._sim.schedule_in(self.config.sleep_retry_interval, self._try_sleep)
            return
        if not self._node.radio.sleep():
            self._sim.schedule_in(self.config.sleep_retry_interval, self._try_sleep)


class PsmSuite(ProtocolSuite):
    """PSM installed on every node of a routing tree."""

    name = "PSM"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: RoutingTree,
        *,
        config: Optional[PsmConfig] = None,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        super().__init__(sim, network, tree)
        self.config = config if config is not None else PsmConfig()
        self.services: Dict[int, QueryService] = {}
        self.managers: Dict[int, PsmPowerManager] = {}
        for node_id in tree.nodes:
            node = network.node(node_id)
            manager = PsmPowerManager(sim, node, self.config)
            policy = PsmSendPolicy(self.config, manager)
            self.managers[node_id] = manager
            self.services[node_id] = QueryService(
                sim,
                node,
                tree,
                policy=policy,
                on_root_delivery=on_root_delivery,
            )

    def query_services(self) -> Iterable[QueryService]:
        return self.services.values()

    def extras(self) -> Dict[str, float]:
        """ATIM announcement frames transmitted (protocol overhead)."""
        return {"atims_sent": float(sum(manager.atims_sent for manager in self.managers.values()))}

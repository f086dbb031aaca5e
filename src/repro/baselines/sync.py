"""SYNC baseline: a fixed, synchronized duty-cycle schedule.

The paper's SYNC baseline models synchronous wake-up MAC protocols such as
S-MAC [16]: every node follows the same periodic schedule with a fixed
active window and a fixed sleep window.  The paper configures a 20 % duty
cycle with a 0.2 s period (the active window therefore coincides with the
highest data rate used in the experiments).

Because the schedule ignores the application's timing semantics, a data
report that becomes ready during the sleep window is buffered by the MAC
until the next active window -- which is exactly the latency penalty
Figures 6 and 7 show for SYNC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..net.node import Network, Node
from ..query.service import GreedySendPolicy, ProtocolSuite, QueryService, RootDeliveryCallback
from ..radio.radio import Radio
from ..routing.tree import RoutingTree
from ..sim.engine import Simulator
from ..sim.events import EventPriority


@dataclass(frozen=True)
class SyncConfig:
    """Parameters of the SYNC schedule (paper defaults)."""

    period: float = 0.2
    duty_cycle: float = 0.2
    #: Retry interval when the radio refuses to sleep because it is busy.
    sleep_retry_interval: float = 0.001

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"SYNC period must be positive, got {self.period!r}")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError(f"SYNC duty cycle must be in (0, 1], got {self.duty_cycle!r}")

    @property
    def active_window(self) -> float:
        """Length of the active window at the start of every period."""
        return self.period * self.duty_cycle


class SyncPowerManager:
    """Drives one node's radio through the shared periodic schedule."""

    def __init__(self, sim: Simulator, node: Node, config: SyncConfig) -> None:
        self._sim = sim
        self._node = node
        self._radio: Radio = node.radio
        self.config = config
        self._in_sleep_window = False
        sim.schedule_at(0.0, self._on_window_start, priority=EventPriority.HIGH)

    def _on_window_start(self) -> None:
        self._in_sleep_window = False
        self._radio.wake_up()
        self._sim.schedule_in(
            self.config.active_window, self._on_window_end, priority=EventPriority.HIGH
        )
        self._sim.schedule_in(self.config.period, self._on_window_start, priority=EventPriority.HIGH)

    def _on_window_end(self) -> None:
        self._in_sleep_window = True
        self._try_sleep()

    def _try_sleep(self) -> None:
        if not self._in_sleep_window:
            return
        if self._radio.is_asleep:
            return
        if not self._radio.sleep():
            # Busy finishing a frame; try again shortly, still within the
            # sleep window.
            self._sim.schedule_in(self.config.sleep_retry_interval, self._try_sleep)


class SyncSuite(ProtocolSuite):
    """SYNC installed on every node of a routing tree."""

    name = "SYNC"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: RoutingTree,
        *,
        config: Optional[SyncConfig] = None,
        on_root_delivery: Optional[RootDeliveryCallback] = None,
    ) -> None:
        super().__init__(sim, network, tree)
        self.config = config if config is not None else SyncConfig()
        self.services: Dict[int, QueryService] = {}
        self.managers: Dict[int, SyncPowerManager] = {}
        for node_id in tree.nodes:
            node = network.node(node_id)
            self.services[node_id] = QueryService(
                sim,
                node,
                tree,
                policy=GreedySendPolicy(),
                on_root_delivery=on_root_delivery,
            )
            self.managers[node_id] = SyncPowerManager(sim, node, self.config)

    def query_services(self) -> Iterable[QueryService]:
        return self.services.values()

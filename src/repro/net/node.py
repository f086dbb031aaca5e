"""Node container assembling the per-node protocol stack.

A :class:`Node` owns one radio and one MAC.  The experiment runner builds
all nodes from a topology and wires them to the shared channel; the
protocol under test (a :class:`~repro.query.service.ProtocolSuite`) then
drives each node's radio and MAC and keeps its per-node instances itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..radio.energy import PowerProfile
from ..radio.radio import Radio
from ..sim.engine import Simulator
from .channel import WirelessChannel
from .topology import Position, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mac depends on net.packet)
    from ..mac.base import MacConfig
    from ..mac.csma import CsmaMac


class Node:
    """One sensor node: a radio and a MAC."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position: Position,
        radio: Radio,
        mac: "CsmaMac",
    ) -> None:
        self.sim = sim
        self.id = node_id
        self.position = position
        self.radio = radio
        self.mac = mac
        #: Whether the node has been failed by a fault-injection experiment.
        self.failed = False

    def finalize(self) -> None:
        """Close energy accounting at the end of the simulation."""
        self.radio.finalize()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.id}, pos=({self.position.x:.1f},{self.position.y:.1f}))"


class Network:
    """A collection of nodes sharing one wireless channel.

    This is the substrate object handed to protocols and experiments: it
    knows the topology, owns the channel, and exposes nodes by id.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        channel: WirelessChannel,
        nodes: Dict[int, Node],
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.channel = channel
        self.nodes = nodes

    @property
    def node_ids(self) -> list[int]:
        """Sorted node identifiers."""
        return sorted(self.nodes)

    def node(self, node_id: int) -> Node:
        """Return the node with id ``node_id``."""
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes.values())

    def finalize(self) -> None:
        """Close energy accounting on every node."""
        for node in self.nodes.values():
            node.finalize()

    def fail_node(self, node_id: int) -> None:
        """Permanently fail ``node_id``: detach it from the channel.

        This is the whole failure for a baseline
        (:meth:`~repro.query.service.ProtocolSuite.fail_node`): its protocol
        is left running and neighbours just see delivery failures.  An ESSAT
        suite's :meth:`~repro.core.protocol.EssatProtocolSuite.fail_node`
        calls this first, then repairs the tree and resynchronises the
        shapers (Section 4.3).
        """
        node = self.nodes[node_id]
        node.failed = True
        self.channel.unregister(node_id)
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "network.node_failed", node=node_id)


def build_network(
    sim: Simulator,
    topology: Topology,
    power_profile: PowerProfile,
    mac_config: Optional["MacConfig"] = None,
    loss_model: Optional[Any] = None,
    propagation: Optional[Any] = None,
    start_awake: bool = True,
) -> Network:
    """Instantiate radios, MACs, and the shared channel for ``topology``.

    ``propagation`` is an optional :mod:`repro.net.propagation` model; the
    default is the paper's unit disk.
    """
    # Imported here rather than at module level: the MAC modules import
    # packet definitions from this package, so a module-level import would
    # be circular.
    from ..mac.base import MacConfig
    from ..mac.csma import CsmaMac

    channel = WirelessChannel(sim, topology, loss_model=loss_model, propagation=propagation)
    mac_config = mac_config if mac_config is not None else MacConfig()
    nodes: Dict[int, Node] = {}
    for node_id in topology.node_ids:
        radio = Radio(sim, node_id, power_profile, start_awake=start_awake)
        mac = CsmaMac(sim, node_id, radio, channel, config=mac_config)
        nodes[node_id] = Node(sim, node_id, topology.positions[node_id], radio, mac)
    return Network(sim, topology, channel, nodes)

"""Node mobility driven by simulator events.

The paper's deployment is static; this module opens the mobility axis with
the classic **random-waypoint** model: every node repeatedly picks a
uniform destination in the deployment area and a uniform speed, walks
there in a straight line, pauses, and picks again.  Positions advance on a
fixed *update interval* as ordinary simulator events; every tick that
moved at least one node pushes the new positions into the
:class:`~repro.net.topology.Topology`, which rebuilds its neighbour sets
and bumps its ``version`` counter -- the same invalidation channel the
failure-injection path uses -- so the wireless channel's cached per-sender
neighbour tuples and any propagation-model link caches refresh before the
next frame.

Things intentionally kept simple (and documented here rather than hidden):

* The routing tree is built from the *initial* placement and is not
  re-rooted as nodes move; delivery degrades as tree links stretch beyond
  the (current) link budget, which is precisely what the ``mobile``
  scenario family measures.
* Frames already on the air keep the coverage snapshot taken at their
  start (frames last milliseconds; update intervals are seconds).
* All waypoint draws come from one named stream, consumed over node ids in
  sorted order, so a run is bit-for-bit reproducible for its seed.

Mobility selection travels with the scenario as a serializable
:class:`MobilitySpec`, mirroring
:class:`~repro.net.topology.TopologySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from .spec import KindParamsSpec
from .topology import Position, Topology


@dataclass(frozen=True)
class MobilitySpec(KindParamsSpec):
    """A serializable recipe for the mobility model a scenario runs.

    ``kind`` names the model; ``params`` is a sorted tuple of
    ``(name, value)`` pairs so the spec hashes stably into the
    orchestrator's job digests (see
    :class:`~repro.net.spec.KindParamsSpec`).
    """

    kind: str = "waypoint"

    #: Models :func:`install_mobility` can dispatch to.
    KINDS = ("waypoint",)
    KIND_NOUN = "mobility"

    @classmethod
    def make(cls, kind: str = "waypoint", **params: float) -> "MobilitySpec":
        """Build a spec from keyword parameters (``MobilitySpec.make(speed=2.0)``)."""
        return cls(kind=kind, params=tuple(params.items()))


class RandomWaypointMobility:
    """Random-waypoint movement for every node of a topology.

    Parameters
    ----------
    sim, topology:
        The simulator driving the updates and the topology being moved.
    speed_min, speed_max:
        Uniform leg-speed range in m/s (sensor-class: walking speeds).
    pause:
        Pause duration at each waypoint in seconds.
    update_interval:
        Position-update tick in seconds.  Smaller = smoother trajectories
        and more neighbour-set rebuilds (each is O(n^2) in node count).
    streams:
        The run's named random streams; waypoints draw from
        ``mobility.waypoint``.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        speed_min: float = 0.5,
        speed_max: float = 1.5,
        pause: float = 2.0,
        update_interval: float = 1.0,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if speed_min <= 0 or speed_max < speed_min:
            raise ValueError(
                f"need 0 < speed_min <= speed_max, got {speed_min!r}, {speed_max!r}"
            )
        if pause < 0:
            raise ValueError(f"pause must be non-negative, got {pause!r}")
        if update_interval <= 0:
            raise ValueError(f"update interval must be positive, got {update_interval!r}")
        self._sim = sim
        self._topology = topology
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause = float(pause)
        self.update_interval = float(update_interval)
        self._rng = (streams or sim.streams).get("mobility.waypoint")
        #: node -> (target, speed) for nodes currently walking a leg.
        self._legs: Dict[int, Tuple[Position, float]] = {}
        #: node -> simulation time its waypoint pause ends.
        self._paused_until: Dict[int, float] = {}
        self._until = 0.0
        #: Number of position-update ticks that moved at least one node.
        self.updates = 0
        #: Total node-moves applied across all ticks.
        self.moves = 0

    def start(self, until: float) -> None:
        """Begin moving nodes; updates stop after simulation time ``until``."""
        self._until = float(until)
        for node_id in sorted(self._topology.positions):
            self._legs[node_id] = self._new_leg(node_id)
        self._schedule_next()

    def _new_leg(self, node_id: int) -> Tuple[Position, float]:
        rng = self._rng
        width, height = self._topology.area
        target = Position(rng.uniform(0.0, width), rng.uniform(0.0, height))
        speed = rng.uniform(self.speed_min, self.speed_max)
        return target, speed

    def _schedule_next(self) -> None:
        next_time = self._sim.now + self.update_interval
        if next_time <= self._until:
            self._sim.schedule_at(next_time, self._tick)

    def _tick(self) -> None:
        now = self._sim.now
        dt = self.update_interval
        topology = self._topology
        moved: Dict[int, Position] = {}
        for node_id in sorted(topology.positions):
            paused_until = self._paused_until.get(node_id)
            if paused_until is not None:
                if now < paused_until:
                    continue
                del self._paused_until[node_id]
                self._legs[node_id] = self._new_leg(node_id)
            leg = self._legs.get(node_id)
            if leg is None:  # node joined after start (not expected, but safe)
                self._legs[node_id] = leg = self._new_leg(node_id)
            target, speed = leg
            current = topology.positions[node_id]
            dx = target.x - current.x
            dy = target.y - current.y
            remaining = (dx * dx + dy * dy) ** 0.5
            step = speed * dt
            if remaining <= step:
                moved[node_id] = target
                self._paused_until[node_id] = now + self.pause
            else:
                scale = step / remaining
                moved[node_id] = Position(
                    current.x + dx * scale, current.y + dy * scale
                )
        if moved:
            topology.update_positions(moved)
            self.updates += 1
            self.moves += len(moved)
            trace = self._sim.trace
            if trace.enabled:
                trace.emit(now, "mobility.update", moved=len(moved))
        self._schedule_next()


def install_mobility(
    spec: MobilitySpec,
    sim: Simulator,
    topology: Topology,
    duration: float,
) -> RandomWaypointMobility:
    """Build the mobility model ``spec`` names and start it immediately."""
    if spec.kind != "waypoint":  # pragma: no cover - MobilitySpec rejects others
        raise ValueError(f"unknown mobility kind {spec.kind!r}")
    speed = spec.param("speed", 1.0)
    mobility = RandomWaypointMobility(
        sim,
        topology,
        speed_min=spec.param("speed_min", max(0.5 * speed, 1e-3)),
        speed_max=spec.param("speed_max", 1.5 * speed),
        pause=spec.param("pause", 2.0),
        update_interval=spec.param("update_interval", 1.0),
        streams=sim.streams,
    )
    mobility.start(until=duration)
    return mobility

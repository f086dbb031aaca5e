"""Experiment runner: build a scenario, install a protocol, run, measure.

The runner is the glue between the scenario configuration, the substrates
(topology, network, routing tree), the protocol under test (one of the three
ESSAT protocols or a baseline), the workload, and the metrics collector.
It wires one replication (:func:`assemble_run`) and runs it
(:func:`run_single`); nothing more.  Sweeps of replications -- every figure
and ``compare`` -- run through
:func:`repro.orchestrator.api.run_sweep`, which sits above this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..net.loss import build_loss_from_spec
from ..net.node import Network, build_network
from ..net.packet import restart_packet_ids
from ..net.propagation import build_propagation_from_spec
from ..net.topology import FailureSchedule, Topology, generate_connected_random_topology
from ..obs.adapters import collect_run_counters
from ..query.query import QuerySpec
from ..routing.tree import RoutingTree, build_routing_tree
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import TraceRecorder
from .config import ScenarioConfig
from .metrics import DeliveryLog, RunMetrics, collect_metrics

#: Protocols the runner knows how to install, in the paper's naming.
ESSAT_PROTOCOLS = ("NTS-SS", "STS-SS", "DTS-SS")
BASELINE_PROTOCOLS = ("SYNC", "PSM", "SPAN", "ALWAYS-ON")
ALL_PROTOCOLS = ESSAT_PROTOCOLS + BASELINE_PROTOCOLS


def build_protocol_suite(
    protocol: str,
    sim: Simulator,
    network: Network,
    tree: RoutingTree,
    *,
    on_root_delivery,
    break_even_time: Optional[float] = None,
):
    """Instantiate the named protocol over an already-built network.

    Each suite's module is imported by the branch that builds it, so a run
    loads one protocol's code and a store replay loads none.
    """
    name = protocol.upper()
    if name in ESSAT_PROTOCOLS:
        from ..core.protocol import EssatProtocolSuite

        return EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper=name.split("-")[0].lower(),
            break_even_time=break_even_time,
            on_root_delivery=on_root_delivery,
        )
    if name == "SYNC":
        from ..baselines.sync import SyncSuite as Suite
    elif name == "PSM":
        from ..baselines.psm import PsmSuite as Suite
    elif name == "SPAN":
        from ..baselines.span import SpanSuite as Suite
    elif name == "ALWAYS-ON":
        from ..baselines.always_on import AlwaysOnSuite as Suite
    else:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {ALL_PROTOCOLS}")
    return Suite(sim, network, tree, on_root_delivery=on_root_delivery)


def build_scenario_topology(scenario: ScenarioConfig, seed: int) -> Topology:
    """Connected placement for one replication of ``scenario``.

    Uniform random in the scenario's area, as in the paper, redrawn until
    the placement is connected.
    """
    return generate_connected_random_topology(
        scenario.num_nodes,
        area=scenario.area,
        comm_range=scenario.comm_range,
        streams=RandomStreams(seed),
    )


def _drop_partitioning_failures(
    events: List[tuple],
    explicit: set,
    topology: Topology,
    tree: RoutingTree,
) -> List[tuple]:
    """Filter out fraction-drawn victims that would partition the survivors.

    Walks the planned failures in time order and keeps a victim only if
    every surviving tree node still reaches the root over the physical
    graph without the nodes failed so far and the victim (one BFS on the
    static topology per drawn victim) -- a necessary condition for tree
    repair to succeed at all.  Explicit ``(time, node)`` events are kept
    without the partition check (they are the experimenter's deliberate
    choice), except events naming the root or a node outside the tree,
    which the runtime would skip as meaningless anyway.
    """
    kept: List[tuple] = []
    failed: set = set()
    for time, node in events:
        if node in failed or node == tree.root or node not in tree:
            continue
        if (time, node) not in explicit:
            excluded = failed | {node}
            component = topology.connected_component_of(tree.root, excluded)
            if not all(n in component for n in tree.nodes if n not in excluded):
                continue
        kept.append((time, node))
        failed.add(node)
    return kept


def install_failure_schedule(
    sim: Simulator,
    network: Network,
    tree: RoutingTree,
    schedule: FailureSchedule,
    fail: Callable[[int], object],
) -> List[tuple]:
    """Turn ``schedule`` into simulator events; returns the planned failures.

    Victims are drawn from the tree's non-root nodes using the run's seeded
    ``scenario.failures`` stream, so the schedule is deterministic per seed.
    Fraction-drawn victims whose failure would physically partition the
    surviving tree nodes (cut vertices, checked with
    :meth:`~repro.net.topology.Topology.connected_component_of` with the
    failed nodes excluded) are skipped, so churn sweeps measure protocol
    repair rather than guaranteed physical partitions; explicit events are
    honoured as given.
    Each failure calls ``fail(node_id)``: an ESSAT suite's
    :meth:`~repro.core.protocol.EssatProtocolSuite.fail_node` repairs the
    tree and resynchronises the shapers (Section 4.3); a baseline passes
    :meth:`~repro.net.node.Network.fail_node`, so the node just leaves the
    channel.
    """
    candidates = [node for node in tree.nodes if node != tree.root]
    drawn = schedule.materialize(candidates, sim.streams.get("scenario.failures"))
    events = _drop_partitioning_failures(
        drawn, set(schedule.explicit), network.topology, tree
    )

    def fail_if_live(node_id: int) -> None:
        node = network.nodes.get(node_id)
        # Explicit schedules may name the root or a node outside the tree;
        # neither failure is meaningful (the root IS the experiment).  A node
        # an earlier repair cut off the tree is no longer in it either.
        if node is None or node.failed or node_id == tree.root or node_id not in tree:
            return
        fail(node_id)

    for time, node_id in events:
        sim.schedule_at(time, fail_if_live, node_id)
    return events


@dataclass(slots=True)
class AssembledRun:
    """One replication wired and ready to run (see :func:`assemble_run`)."""

    scenario: ScenarioConfig
    protocol: str
    queries: Sequence[QuerySpec]
    sim: Simulator
    topology: Topology
    network: Network
    tree: RoutingTree
    suite: Any
    deliveries: DeliveryLog
    #: The measured nodes and their ranks: the tree as assembled, less the
    #: planned failure victims (see :func:`collect_metrics`).
    ranks: Dict[int, int]

    def execute(self) -> tuple[RunMetrics, Dict[str, float]]:
        """Run to the scenario's end; returns the metrics and protocol extras."""
        scenario, suite = self.scenario, self.suite
        wall_start = perf_counter()
        self.sim.run(until=scenario.duration)
        wall_seconds = perf_counter() - wall_start
        self.network.finalize()
        metrics = collect_metrics(
            self.protocol,
            self.network,
            self.tree,
            self.deliveries,
            self.queries,
            scenario.duration,
            measure_from=scenario.measure_from,
            counters=collect_run_counters(self.sim, self.network, suite, wall_seconds=wall_seconds),
            ranks=self.ranks,
        )
        extras: Dict[str, float] = {}
        if hasattr(suite, "overhead_bits_per_report"):
            extras["overhead_bits_per_report"] = suite.overhead_bits_per_report()
        if hasattr(suite, "total_atims_sent"):
            extras["atims_sent"] = float(suite.total_atims_sent())
        return metrics, extras


def assemble_run(
    scenario: ScenarioConfig,
    protocol: str,
    queries: Sequence[QuerySpec],
    seed: int,
    *,
    trace: Optional[TraceRecorder] = None,
) -> AssembledRun:
    """Wire one replication of ``scenario``: the one place a run is built.

    ``trace=None`` keeps the simulator's disabled recorder, so an untraced
    run pays nothing.  Tracing is observation-only: a run traced with
    ``TraceRecorder(enabled=True)`` has the same metrics as the untraced one.
    Packet ids restart at 1, so two identical runs in one process record
    identical traces.
    """
    restart_packet_ids()
    sim = Simulator(seed=seed, trace=trace)
    topology = build_scenario_topology(scenario, seed)
    network = build_network(
        sim,
        topology,
        power_profile=scenario.power_profile,
        mac_config=scenario.mac_config,
        loss_model=build_loss_from_spec(scenario.loss, seed=seed),
        propagation=build_propagation_from_spec(scenario.propagation, seed=seed),
    )
    tree = build_routing_tree(
        topology,
        root=topology.center_node(),
        max_distance_from_root=scenario.max_distance_from_root,
    )
    deliveries = DeliveryLog()
    suite = build_protocol_suite(
        protocol,
        sim,
        network,
        tree,
        on_root_delivery=deliveries,
        break_even_time=scenario.break_even_time,
    )
    suite.register_queries(queries)
    victims: set = set()
    if scenario.failure_schedule is not None and not scenario.failure_schedule.is_empty:
        fail = suite.fail_node if protocol.upper() in ESSAT_PROTOCOLS else network.fail_node
        planned = install_failure_schedule(sim, network, tree, scenario.failure_schedule, fail)
        victims = {node for _, node in planned}
    ranks = {node: tree.rank(node) for node in tree.nodes if node not in victims}
    return AssembledRun(
        scenario, protocol, queries, sim, topology, network, tree, suite, deliveries, ranks
    )


def run_single(
    scenario: ScenarioConfig, protocol: str, queries: Sequence[QuerySpec], seed: int
) -> tuple[RunMetrics, Dict[str, float]]:
    """Run one untraced replication; returns its metrics and protocol extras."""
    return assemble_run(scenario, protocol, queries, seed).execute()


"""Experiment runner: build a scenario, install a protocol, run, measure.

The runner is the glue between the scenario configuration, the substrates
(topology, network, routing tree), the protocol under test (one of the three
ESSAT protocols or a baseline), the workload, and the metrics collector.
Every figure-reproduction function in :mod:`repro.experiments.figures` is a
thin loop over :func:`run_experiment`.

Execution is delegated to :mod:`repro.orchestrator`: one replication is a
content-addressed :class:`~repro.orchestrator.jobs.RunJob`, so experiments
can fan out over worker processes (``jobs=N``) and memoise finished
runs in an on-disk store (``store=...``) without changing their results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..net.loss import build_loss_from_spec
from ..net.mobility import install_mobility
from ..net.node import Network, build_network
from ..net.propagation import build_propagation_from_spec
from ..net.topology import (
    FailureSchedule,
    Topology,
    build_topology_from_spec,
    generate_connected_topology,
)
from ..obs.adapters import collect_run_counters
from ..query.query import QuerySpec
from ..query.workload import WorkloadSpec
from ..routing.tree import RoutingTree, build_routing_tree
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from .config import ScenarioConfig
from .metrics import DeliveryLog, RunMetrics, collect_metrics

#: Protocols the runner knows how to install, in the paper's naming.
ESSAT_PROTOCOLS = ("NTS-SS", "STS-SS", "DTS-SS")
BASELINE_PROTOCOLS = ("SYNC", "PSM", "SPAN", "ALWAYS-ON")
ALL_PROTOCOLS = ESSAT_PROTOCOLS + BASELINE_PROTOCOLS


@dataclass
class ExperimentResult:
    """Everything produced by one (possibly replicated) experiment."""

    protocol: str
    scenario: ScenarioConfig
    #: The FIRST replication's query list.  Workload-based experiments
    #: re-randomize query start times per replication; the full picture is
    #: in :attr:`per_run_queries`, which this field merely heads.
    queries: List[QuerySpec]
    metrics: RunMetrics
    per_run_metrics: List[RunMetrics] = field(default_factory=list)
    #: The query list of every replication, in replication order.
    per_run_queries: List[List[QuerySpec]] = field(default_factory=list)
    #: Optional extra outputs specific protocols expose (e.g. DTS overhead).
    extras: Dict[str, float] = field(default_factory=dict)

    def duty_cycle_interval(self, confidence: float = 0.9):
        """Confidence interval of the average duty cycle over the replications."""
        from .stats import interval_from_runs

        return interval_from_runs(
            self.per_run_metrics, lambda run: run.average_duty_cycle, confidence=confidence
        )

    def latency_interval(self, confidence: float = 0.9):
        """Confidence interval of the average query latency over the replications."""
        from .stats import interval_from_runs

        return interval_from_runs(
            self.per_run_metrics, lambda run: run.average_query_latency, confidence=confidence
        )


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
    if name in ("NTS-SS", "STS-SS", "DTS-SS"):
        from ..core.protocol import EssatProtocolSuite

        shaper = name.split("-")[0].lower()
        return EssatProtocolSuite(
            sim,
            network,
            tree,
            shaper=shaper,
            break_even_time=break_even_time,
            on_root_delivery=on_root_delivery,
        )
    if name == "SYNC":
        from ..baselines.sync import SyncSuite

        return SyncSuite(sim, network, tree, on_root_delivery=on_root_delivery)
    if name == "PSM":
        from ..baselines.psm import PsmSuite

        return PsmSuite(sim, network, tree, on_root_delivery=on_root_delivery)
    if name == "SPAN":
        from ..baselines.span import SpanSuite

        return SpanSuite(sim, network, tree, on_root_delivery=on_root_delivery)
    if name == "ALWAYS-ON":
        from ..baselines.always_on import AlwaysOnSuite

        return AlwaysOnSuite(sim, network, tree, on_root_delivery=on_root_delivery)
    raise ValueError(f"unknown protocol {protocol!r}; expected one of {ALL_PROTOCOLS}")


def build_scenario_topology(scenario: ScenarioConfig, seed: int) -> Topology:
    """Connected placement for one replication of ``scenario``.

    Dispatches on ``scenario.topology`` (uniform random by default, matching
    the paper; clustered / corridor for the registry's scenario families) and
    redraws until the placement is connected.
    """
    return generate_connected_topology(
        lambda forked: build_topology_from_spec(
            scenario.topology,
            num_nodes=scenario.num_nodes,
            area=scenario.area,
            comm_range=scenario.comm_range,
            streams=forked,
        ),
        streams=RandomStreams(seed),
    )


def _drop_partitioning_failures(
    events: List[tuple],
    explicit: set,
    topology: Topology,
    tree: RoutingTree,
) -> List[tuple]:
    """Filter out fraction-drawn victims that would partition the survivors.

    Applies the planned failures in time order to a scratch copy of the
    topology (via :meth:`Topology.remove_node`) and keeps a victim only if
    every surviving tree node still reaches the root over the remaining
    physical graph -- a necessary condition for tree repair to succeed at
    all.  Explicit ``(time, node)`` events are kept without the partition
    check (they are the experimenter's deliberate choice), except events
    naming the root or a node outside the tree, which the runtime would
    skip as meaningless anyway.
    """
    kept: List[tuple] = []
    failed: set = set()
    for time, node in events:
        if node in failed or node == tree.root or node not in tree:
            continue
        if (time, node) not in explicit:
            scratch = Topology(
                positions={
                    nid: pos
                    for nid, pos in topology.positions.items()
                    if nid not in failed
                },
                comm_range=topology.comm_range,
                area=topology.area,
            )
            scratch.remove_node(node)
            component = scratch.connected_component_of(tree.root)
            survivors = [
                n for n in tree.nodes if n not in failed and n != node
            ]
            if not all(n in component for n in survivors):
                continue
        kept.append((time, node))
        failed.add(node)
    return kept


def install_failure_schedule(
    sim: Simulator,
    network: Network,
    tree: RoutingTree,
    schedule: FailureSchedule,
    suite=None,
) -> List[tuple]:
    """Turn ``schedule`` into simulator events; returns the planned failures.

    Victims are drawn from the tree's non-root nodes using the run's seeded
    ``scenario.failures`` stream, so the schedule is deterministic per seed.
    Fraction-drawn victims whose removal would physically partition the
    surviving tree nodes (cut vertices, checked with
    :meth:`~repro.net.topology.Topology.remove_node` on a scratch copy) are
    skipped, so churn sweeps measure protocol repair rather than guaranteed
    physical partitions; explicit events are honoured as given.
    When ``suite`` is an ESSAT protocol suite, failures route through
    :class:`~repro.core.maintenance.EssatMaintenance` so the tree is repaired
    and shapers resynchronise (Section 4.3); baseline suites just lose the
    node from the channel and observe the resulting delivery failures.
    """
    from ..core.maintenance import EssatMaintenance
    from ..core.protocol import EssatProtocolSuite

    candidates = [node for node in tree.nodes if node != tree.root]
    drawn = schedule.materialize(candidates, sim.streams.get("scenario.failures"))
    events = _drop_partitioning_failures(
        drawn, set(schedule.explicit), network.topology, tree
    )
    if not events:
        return events
    if isinstance(suite, EssatProtocolSuite):
        maintenance = EssatMaintenance(suite, network)
        handler = maintenance.fail_node
    else:
        handler = network.fail_node

    def fail(node_id: int) -> None:
        node = network.nodes.get(node_id)
        # Explicit schedules may name the root or a node outside the tree;
        # neither failure is meaningful (the root IS the experiment).
        if node is None or node.failed or node_id == tree.root or node_id not in tree:
            return
        handler(node_id)

    for time, node_id in events:
        sim.schedule_at(time, fail, node_id)
    return events


def run_single(
    scenario: ScenarioConfig,
    protocol: str,
    queries: Sequence[QuerySpec],
    seed: int,
    *,
    topology: Optional[Topology] = None,
) -> tuple[RunMetrics, Dict[str, float]]:
    """Run one replication; returns its metrics and protocol-specific extras.

    The simulator records no trace (its default), so a run pays nothing
    for tracing.  Tracing is observation-only: a traced run
    (``tests/golden/make_hotpath_golden.py``'s ``trace_snapshot``) has the
    same schedule, and therefore the same metrics, as this one.
    """
    # Honour REPRO_SANITIZE=1 in every process that executes simulations
    # (CLI, pytest, spawn-pool sweep workers inherit the environment).
    # Runs outside the armed window, so the flag read itself never trips.
    # Imported here so a store replay never loads the sanitizer.
    from ..sanitizer.runtime import maybe_install_from_env

    maybe_install_from_env()
    sim = Simulator(seed=seed)
    if topology is None:
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
    if scenario.failure_schedule is not None and not scenario.failure_schedule.is_empty:
        install_failure_schedule(sim, network, tree, scenario.failure_schedule, suite=suite)
    if scenario.mobility is not None:
        install_mobility(scenario.mobility, sim, topology, scenario.duration)
    wall_start = perf_counter()
    sim.run(until=scenario.duration)
    wall_seconds = perf_counter() - wall_start
    network.finalize()
    metrics = collect_metrics(
        protocol,
        network,
        tree,
        deliveries,
        queries,
        scenario.duration,
        measure_from=scenario.measure_from,
        counters=collect_run_counters(
            sim, network, suite, wall_seconds=wall_seconds
        ),
    )
    extras: Dict[str, float] = {}
    overhead_fn = getattr(suite, "overhead_bits_per_report", None)
    if overhead_fn is not None:
        extras["overhead_bits_per_report"] = overhead_fn()
    atims_fn = getattr(suite, "total_atims_sent", None)
    if atims_fn is not None:
        extras["atims_sent"] = float(atims_fn())
    return metrics, extras


def run_experiment(
    scenario: ScenarioConfig,
    protocol: str,
    *,
    workload: Optional[WorkloadSpec] = None,
    queries: Optional[Sequence[QuerySpec]] = None,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store=None,
    progress=None,
) -> ExperimentResult:
    """Run ``protocol`` under ``scenario`` for one workload, with replications.

    Exactly one of ``workload`` (generated per replication with that
    replication's seed, as in the paper where query start times vary per run)
    or ``queries`` (fixed across replications) must be provided.

    Execution routes through :mod:`repro.orchestrator`: ``jobs=N`` fans
    the replications out over ``N`` worker processes (``1`` keeps the
    in-process path; the metrics are bit-identical either way), and
    ``store`` (a cache directory or an open
    :class:`~repro.orchestrator.store.ResultStore`) memoises finished
    replications so repeated or interrupted experiments skip the simulator.
    """
    # Imported here because the orchestrator sits above this module.
    from ..orchestrator.api import ExperimentSpec, run_experiments

    spec = ExperimentSpec(
        scenario=scenario,
        protocol=protocol,
        workload=workload,
        queries=queries,
        num_runs=num_runs,
    )
    return run_experiments([spec], jobs=jobs, store=store, progress=progress)[0]


def run_protocol_comparison(
    scenario: ScenarioConfig,
    protocols: Sequence[str],
    *,
    workload: Optional[WorkloadSpec] = None,
    queries: Optional[Sequence[QuerySpec]] = None,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store=None,
    progress=None,
) -> Dict[str, ExperimentResult]:
    """Run several protocols under the identical scenario and workload.

    All protocols' replications are flattened into one sweep, so
    ``jobs=N`` overlaps runs *across* protocols, not only within one.
    """
    from ..orchestrator.api import ExperimentSpec, run_experiments

    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol=protocol,
            workload=workload,
            queries=queries,
            num_runs=num_runs,
        )
        for protocol in protocols
    ]
    results = run_experiments(specs, jobs=jobs, store=store, progress=progress, label="compare")
    return {spec.protocol: result for spec, result in zip(specs, results, strict=True)}

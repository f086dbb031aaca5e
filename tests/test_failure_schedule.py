"""Failure schedules and failure injection (scheduled node churn).

ESSAT's maintenance code (Section 4.3) runs only when nodes fail, so the
failure schedule is the one scenario axis beyond the paper's static setup
that the repository keeps.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.runner import (
    ALL_PROTOCOLS,
    ESSAT_PROTOCOLS,
    AssembledRun,
    _drop_partitioning_failures,
    assemble_run,
    build_scenario_topology,
    install_failure_schedule,
    run_single,
)
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.node import build_network
from repro.net.topology import FailureSchedule, Topology
from repro.orchestrator.jobs import RunJob
from repro.query.workload import WorkloadSpec, generate_queries
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class TestFailureSchedule:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            FailureSchedule(fraction=1.0)
        with pytest.raises(ValueError):
            FailureSchedule(window=(5.0, 1.0))
        with pytest.raises(ValueError):
            FailureSchedule(explicit=((-1.0, 2),))

    def test_empty_schedule(self) -> None:
        assert FailureSchedule().is_empty
        assert not FailureSchedule(fraction=0.1).is_empty
        assert not FailureSchedule(explicit=((1.0, 2),)).is_empty

    def test_materialize_is_deterministic(self) -> None:
        schedule = FailureSchedule(fraction=0.25, window=(2.0, 8.0))
        candidates = list(range(1, 13))
        first = schedule.materialize(candidates, random.Random(42))
        second = schedule.materialize(candidates, random.Random(42))
        assert first == second
        assert len(first) == 3  # 25% of 12
        assert all(2.0 <= t <= 8.0 and n in candidates for t, n in first)
        assert first == sorted(first)

    def test_nonzero_fraction_fails_at_least_one_node(self) -> None:
        schedule = FailureSchedule(fraction=0.01, window=(0.0, 1.0))
        events = schedule.materialize([1, 2, 3], random.Random(0))
        assert len(events) == 1

    def test_explicit_events_are_merged_and_sorted(self) -> None:
        schedule = FailureSchedule(explicit=((5.0, 3), (1.0, 2)))
        assert schedule.materialize([], random.Random(0)) == [(1.0, 2), (5.0, 3)]


class TestFailureInjection:
    def _scenario(self, fraction: float = 0.25) -> ScenarioConfig:
        return smoke_scale().with_overrides(
            failure_schedule=FailureSchedule(
                fraction=fraction, window=(3.0, 6.0)
            )
        )

    def test_install_schedules_network_failures(self) -> None:
        scenario = self._scenario()
        sim = Simulator(seed=5)
        topology = build_scenario_topology(scenario, seed=5)
        network = build_network(sim, topology, power_profile=IDEAL)
        tree = build_routing_tree(topology, root=topology.center_node())
        events = install_failure_schedule(
            sim, network, tree, scenario.failure_schedule, network.fail_node
        )
        assert events
        assert all(node != tree.root for _, node in events)
        sim.run(until=scenario.duration)
        for _, node in events:
            assert network.node(node).failed

    def test_explicit_root_failure_is_skipped(self) -> None:
        sim = Simulator(seed=5)
        topology = Topology.line(num_nodes=3, spacing=50.0)
        network = build_network(sim, topology, power_profile=IDEAL)
        tree = build_routing_tree(topology, root=1)
        schedule = FailureSchedule(explicit=((1.0, 1), (2.0, 0)))
        install_failure_schedule(sim, network, tree, schedule, network.fail_node)
        sim.run(until=5.0)
        assert not network.node(1).failed  # the root is never failed
        assert network.node(0).failed

    def test_explicit_root_failure_with_fraction_does_not_crash(self) -> None:
        """Regression: an explicit event naming the root used to make the
        partition check crash (KeyError) when fraction victims followed."""
        sim = Simulator(seed=5)
        topology = Topology.line(num_nodes=5, spacing=50.0)
        network = build_network(sim, topology, power_profile=IDEAL)
        tree = build_routing_tree(topology, root=2)
        schedule = FailureSchedule(
            fraction=0.3, window=(2.0, 3.0), explicit=((1.0, 2),)
        )
        events = install_failure_schedule(sim, network, tree, schedule, network.fail_node)
        assert all(node != tree.root for _, node in events)
        sim.run(until=5.0)
        assert not network.node(tree.root).failed

    def test_run_single_with_churn_is_deterministic(self) -> None:
        scenario = self._scenario()
        queries = RunJob(
            scenario=scenario, protocol="DTS-SS", seed=2,
            workload=WorkloadSpec(base_rate_hz=2.0),
        ).resolve_queries()
        first, _ = run_single(scenario, "DTS-SS", queries, seed=2)
        second, _ = run_single(scenario, "DTS-SS", queries, seed=2)
        assert first == second

    def test_churn_changes_the_outcome(self) -> None:
        queries = RunJob(
            scenario=smoke_scale(), protocol="SPAN", seed=2,
            workload=WorkloadSpec(base_rate_hz=2.0),
        ).resolve_queries()
        calm, _ = run_single(smoke_scale(), "SPAN", queries, seed=2)
        churned, _ = run_single(self._scenario(0.3), "SPAN", queries, seed=2)
        assert churned != calm


def run_churn(scenario: ScenarioConfig, protocol: str, seed: int) -> AssembledRun:
    """Run one replication to its end; returns the assembled run for inspection."""
    queries = generate_queries(rate_sweep_workload(2.0), streams=RandomStreams(seed))
    run = assemble_run(scenario, protocol, queries, seed)
    run.execute()
    return run


def assert_retired_nodes_gone(run: AssembledRun) -> None:
    """An ESSAT suite holds exactly the tree's nodes, and no failed node is
    left in the tree; every node that left the tree stopped sleeping."""
    tree, network = run.tree, run.network
    assert set(run.suite.nodes) == tree.node_set
    assert not any(network.node(node).failed for node in tree.nodes)
    for node_id, node in network.nodes.items():
        if node.power_manager is not None and node_id not in tree:
            assert not node.power_manager.safe_sleep.enabled


CHURN = smoke_scale().with_overrides(
    failure_schedule=FailureSchedule(fraction=0.3, window=(3.0, 9.0))
)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_churn_runs_complete_under_every_protocol(protocol: str) -> None:
    """30% of the tree fails at smoke scale: every seed runs to its end.

    Seeds 1-20 include STS-SS runs in which a node fails while holding a
    buffered report (seeds 7, 11, 12, 16, 17, 18) and a repair that cuts a
    subtree off although its members still hear the tree (seed 12).
    """
    for seed in range(1, 21):
        run = run_churn(CHURN, protocol, seed)
        if protocol in ESSAT_PROTOCOLS:
            assert_retired_nodes_gone(run)


def test_churn_metrics_average_one_node_set() -> None:
    """A repairing and a non-repairing protocol measure the same nodes.

    At seed 12 the DTS-SS repair drops failed node 0 and cuts its orphans
    off the tree, while PSM's tree keeps every node.  Both average over the
    tree as assembled, less the planned victims, each node at its
    assembled rank.
    """
    seed = 12
    queries = generate_queries(rate_sweep_workload(2.0), streams=RandomStreams(seed))
    dts = assemble_run(CHURN, "DTS-SS", queries, seed)
    dts_metrics, _ = dts.execute()
    psm_metrics, _ = run_single(CHURN, "PSM", queries, seed)
    assert set(dts_metrics.duty_cycle_per_node) == set(psm_metrics.duty_cycle_per_node)
    assert set(dts_metrics.energy_per_node) == set(psm_metrics.energy_per_node)
    assert 0 not in dts_metrics.duty_cycle_per_node
    assert set(dts.tree.nodes) < set(dts_metrics.duty_cycle_per_node)
    assert set(dts_metrics.duty_cycle_by_rank) == set(psm_metrics.duty_cycle_by_rank)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_explicit_cut_vertex_failure_completes(protocol: str) -> None:
    """An explicit failure may partition the survivors; the run goes on."""
    seed = 2
    scenario = smoke_scale()
    topology = build_scenario_topology(scenario, seed)
    tree = build_routing_tree(
        topology,
        root=topology.center_node(),
        max_distance_from_root=scenario.max_distance_from_root,
    )
    cut_off = {
        node: [
            other
            for other in tree.nodes
            if other not in topology.connected_component_of(tree.root, frozenset({node}))
            and other != node
        ]
        for node in tree.nodes
        if node != tree.root
    }
    victim = max(cut_off, key=lambda node: len(cut_off[node]))
    assert cut_off[victim]
    scenario = scenario.with_overrides(failure_schedule=FailureSchedule(explicit=((4.0, victim),)))
    run = run_churn(scenario, protocol, seed)
    assert run.network.node(victim).failed
    if protocol in ESSAT_PROTOCOLS:
        assert_retired_nodes_gone(run)
        assert run.tree.node_set.isdisjoint(cut_off[victim])


def naive_partition_filter(events, explicit, topology, tree) -> list:
    """The partition filter written out the slow way: for each drawn victim,
    rebuild a topology from the positions of the nodes still alive and ask
    whether every surviving tree node reaches the root in it."""
    kept, failed = [], set()
    for time, node in events:
        if node in failed or node == tree.root or node not in tree:
            continue
        if (time, node) not in explicit:
            alive = Topology(
                positions={
                    nid: position
                    for nid, position in topology.positions.items()
                    if nid not in failed and nid != node
                },
                comm_range=topology.comm_range,
                area=topology.area,
            )
            component = alive.connected_component_of(tree.root)
            if any(n not in component for n in tree.nodes if n not in failed and n != node):
                continue
        kept.append((time, node))
        failed.add(node)
    return kept


@st.composite
def connected_placements(draw) -> Topology:
    """8-30 nodes, each within range of an earlier one: connected, and
    sparse enough that many nodes are cut vertices."""
    comm_range = 50.0
    coordinates = [(0.0, 0.0)]
    for _ in range(draw(st.integers(min_value=7, max_value=29))):
        x, y = coordinates[draw(st.integers(min_value=0, max_value=len(coordinates) - 1))]
        angle = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        distance = draw(st.floats(min_value=1.0, max_value=comm_range))
        coordinates.append((x + distance * math.cos(angle), y + distance * math.sin(angle)))
    return Topology.from_positions(coordinates, comm_range=comm_range)


@settings(max_examples=150, deadline=None)
@given(
    topology=connected_placements(),
    max_distance=st.one_of(st.none(), st.floats(min_value=40.0, max_value=200.0)),
    fraction=st.sampled_from((0.0, 0.2, 0.5, 0.9)),
    explicit=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=10.0), st.integers(0, 35)), max_size=4
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(
    topology=Topology.line(num_nodes=8, spacing=10.0, comm_range=15.0),
    max_distance=None,
    fraction=0.9,
    explicit=[(1.0, 0), (2.0, 3)],
    seed=0,
)
def test_partition_filter_matches_naive_rebuild(
    topology: Topology, max_distance, fraction: float, explicit: list, seed: int
) -> None:
    tree = build_routing_tree(
        topology, root=topology.center_node(), max_distance_from_root=max_distance
    )
    schedule = FailureSchedule(fraction=fraction, window=(0.0, 10.0), explicit=tuple(explicit))
    candidates = [node for node in tree.nodes if node != tree.root]
    events = schedule.materialize(candidates, random.Random(seed))
    explicit_set = set(schedule.explicit)
    kept = _drop_partitioning_failures(events, explicit_set, topology, tree)
    assert kept == naive_partition_filter(events, explicit_set, topology, tree)

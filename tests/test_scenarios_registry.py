"""Failure schedules and failure injection (scheduled node churn).

ESSAT's maintenance code (Section 4.3) runs only when nodes fail, so the
failure schedule is the one scenario axis beyond the paper's static setup
that the repository keeps.  The file keeps its name so its test ids stay
stable.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.runner import (
    build_scenario_topology,
    install_failure_schedule,
    run_single,
)
from repro.net.node import build_network
from repro.net.topology import FailureSchedule, Topology
from repro.orchestrator.jobs import RunJob
from repro.query.workload import WorkloadSpec
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


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
            sim, network, tree, scenario.failure_schedule
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
        install_failure_schedule(sim, network, tree, schedule)
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
        events = install_failure_schedule(sim, network, tree, schedule)
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

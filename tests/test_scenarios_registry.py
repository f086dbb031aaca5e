"""Tests for the scenario registry, failure injection, and family sweeps."""

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
from repro.net.topology import (
    FailureSchedule,
    Topology,
    TopologySpec,
    build_topology_from_spec,
)
from repro.orchestrator.codec import decode, encode
from repro.orchestrator.jobs import RunJob
from repro.query.workload import WorkloadSpec
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.scenarios.families import (
    FAMILIES,
    ScenarioFamily,
    ScenarioVariant,
    all_families,
    family_names,
    get_family,
)
from repro.scenarios.run import run_family
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

#: Families the ISSUEs require (plus `size`, which rides along).  The last
#: four are the propagation-layer families (PR 4).
EXPECTED_FAMILIES = {
    "paper",
    "reduced",
    "smoke",
    "clustered",
    "corridor",
    "density",
    "size",
    "radio-profiles",
    "churn",
    "shadowed",
    "capture",
    "bursty",
    "mobile",
}


class TestTopologySpec:
    def test_params_are_normalized_and_hashable(self) -> None:
        a = TopologySpec.make("clustered", clusters=3, cluster_radius=50.0)
        b = TopologySpec(kind="clustered", params=(("cluster_radius", 50), ("clusters", 3.0)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.param("clusters", 0.0) == 3.0
        assert a.param("missing", 7.5) == 7.5

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError):
            TopologySpec(kind="moebius")

    def test_build_dispatch(self) -> None:
        streams = RandomStreams(3)
        uniform = build_topology_from_spec(
            TopologySpec(), 10, (200.0, 200.0), 100.0, streams=streams
        )
        clustered = build_topology_from_spec(
            TopologySpec.make("clustered", clusters=2), 10, (200.0, 200.0), 100.0, seed=3
        )
        corridor = build_topology_from_spec(
            TopologySpec.make("corridor"), 10, (400.0, 50.0), 100.0, seed=3
        )
        for topology in (uniform, clustered, corridor):
            assert topology.num_nodes == 10


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


class TestRegistry:
    def test_required_families_are_registered(self) -> None:
        names = set(family_names())
        assert EXPECTED_FAMILIES <= names
        assert len(names) >= 6

    def test_every_family_builds_valid_smoke_variants(self) -> None:
        base = smoke_scale()
        for family in all_families():
            if family.name == "paper":
                continue  # paper scale is intentionally full size; skip building
            variants = family.variants(base)
            assert variants, family.name
            labels = [variant.label for variant in variants]
            assert len(labels) == len(set(labels)), f"{family.name} has duplicate labels"
            for variant in variants:
                assert isinstance(variant.scenario, ScenarioConfig)
                assert isinstance(variant.workload, WorkloadSpec)

    def test_variants_serialize_into_distinct_job_digests(self) -> None:
        base = smoke_scale()
        digests = set()
        for family in all_families():
            if family.name == "paper":
                continue
            for variant in family.variants(base):
                restored = decode(ScenarioConfig, encode(variant.scenario))
                assert restored == variant.scenario
                job = RunJob(
                    scenario=variant.scenario,
                    protocol="DTS-SS",
                    seed=1,
                    workload=variant.workload,
                )
                digests.add(job.digest)
        # Distinct variants hash to distinct digests (`reduced`'s single
        # variant coincides with `density`/`size` at factor 1.0 by design).
        assert len(digests) >= 20

    def test_get_family_unknown_name(self) -> None:
        with pytest.raises(KeyError, match="known families"):
            get_family("does-not-exist")


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


class TestFamilySweeps:
    def test_churn_family_through_orchestrator_and_warm_replay(self, tmp_path) -> None:
        store = tmp_path / "family-store"
        cold = run_family(
            "churn", base=smoke_scale(), protocols=["DTS-SS"], store=store
        )
        assert cold.executed_runs == 4
        assert cold.cached_runs == 0
        warm = run_family(
            "churn", base=smoke_scale(), protocols=["DTS-SS"], store=store
        )
        # The warm-store replay performs ZERO simulator runs...
        assert warm.executed_runs == 0
        assert warm.cached_runs == 4
        # ...and reproduces the cold sweep bit-for-bit.
        for variant in cold.variants:
            assert (
                warm.result(variant.label, "DTS-SS").metrics
                == cold.result(variant.label, "DTS-SS").metrics
            )

    def test_family_table_lists_every_cell(self) -> None:
        result = run_family("smoke", protocols=["DTS-SS"])
        table = result.table()
        assert "smoke-12n DTS-SS" in table
        assert "duty_cycle_%" in table

    def test_run_family_rejects_empty_protocols(self) -> None:
        with pytest.raises(ValueError):
            run_family("smoke", protocols=[])

    def test_run_family_rejects_duplicate_variant_labels(self) -> None:
        """Labels key the result cells; silent dict collapse would return
        the wrong metrics for one of the colliding sweep points."""
        def build(scenario):
            workload = WorkloadSpec(base_rate_hz=1.0)
            return [
                ScenarioVariant("same", 1.0, scenario, workload),
                ScenarioVariant("same", 2.0, scenario.with_overrides(seed=9), workload),
            ]

        family = ScenarioFamily("test-dup", "family with colliding labels", "variant", build)
        with pytest.raises(ValueError, match="duplicate variant labels"):
            run_family(family, base=smoke_scale())

    def test_identical_variants_count_one_executed_run(self) -> None:
        """Two labels for one scenario are one simulator run and one replay."""
        def build(base):
            workload = WorkloadSpec(base_rate_hz=1.0)
            return [
                ScenarioVariant("a", 1.0, base, workload),
                ScenarioVariant("b", 2.0, base, workload),
            ]

        family = ScenarioFamily("test-twins", "two labels, one scenario", "variant", build)
        result = run_family(family, base=smoke_scale(), protocols=["DTS-SS"])
        assert (result.executed_runs, result.cached_runs) == (1, 1)

    def test_run_family_accepts_a_family_outside_the_table(self) -> None:
        def build(base):
            return [ScenarioVariant("only", 1.0, base, WorkloadSpec(base_rate_hz=1.0))]

        family = ScenarioFamily("test-tmp", "temporary test family", "variant", build)
        result = run_family(family, base=smoke_scale(), protocols=["DTS-SS"])
        assert "test-tmp" not in FAMILIES
        assert [variant.label for variant in result.variants] == ["only"]
        assert result.executed_runs == len(result.job_results) > 0

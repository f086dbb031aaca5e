"""Tests for replication statistics and network-lifetime estimation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.lifetime import (
    DEFAULT_BATTERY_CAPACITY_J,
    compare_lifetimes,
    estimate_lifetime,
    lifetime_by_rank,
)
from repro.experiments.metrics import RunMetrics
from repro.experiments.stats import (
    IntervalEstimate,
    _t_critical,
    confidence_interval,
    interval_from_runs,
    mean,
    sample_std,
    t_critical,
)
from repro.routing.tree import RoutingTree


class TestStats:
    def test_mean_and_std(self) -> None:
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert sample_std([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
        assert sample_std([5.0]) == 0.0
        with pytest.raises(ValueError):
            mean([])

    def test_single_sample_interval_has_zero_width(self) -> None:
        interval = confidence_interval([0.4])
        assert interval.mean == pytest.approx(0.4)
        assert interval.half_width == 0.0
        assert interval.samples == 1

    def test_interval_contains_true_mean_for_tight_samples(self) -> None:
        interval = confidence_interval([0.30, 0.31, 0.29, 0.30, 0.30], confidence=0.9)
        assert interval.contains(0.30)
        assert interval.low < 0.30 < interval.high
        assert interval.half_width < 0.02

    def test_wider_confidence_gives_wider_interval(self) -> None:
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = confidence_interval(samples, confidence=0.9)
        wide = confidence_interval(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_interval_validation(self) -> None:
        with pytest.raises(ValueError):
            confidence_interval([])
        with pytest.raises(ValueError):
            confidence_interval([1.0], confidence=1.5)

    def test_interval_from_runs(self) -> None:
        runs = [{"duty": 0.2}, {"duty": 0.3}, {"duty": 0.25}]
        interval = interval_from_runs(runs, lambda run: run["duty"])
        assert interval.mean == pytest.approx(0.25)

    def test_str_representation(self) -> None:
        text = str(IntervalEstimate(mean=0.5, half_width=0.1, confidence=0.9, samples=5))
        assert "0.5" in text and "90%" in text and "n=5" in text


class TestTCritical:
    """The stdlib Student-t quantile, checked against scipy as the oracle."""

    CONFIDENCES = (0.5, 0.8, 0.9, 0.92, 0.95, 0.975, 0.99, 0.999)
    DOFS = (*range(1, 41), 50, 100, 120, 1000, 100000)

    def test_matches_scipy_quantile(self) -> None:
        scipy_stats = pytest.importorskip("scipy.stats")
        for confidence in self.CONFIDENCES:
            for dof in self.DOFS:
                exact = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
                assert _t_critical(confidence, dof) == pytest.approx(exact, rel=1e-9), (
                    confidence,
                    dof,
                )

    def test_confidence_between_table_levels_is_exact(self) -> None:
        # The old scipy-less table snapped 0.92 to its 90% row (2.353).
        assert _t_critical(0.92, 3) == pytest.approx(2.6054, abs=1e-4)

    def test_moderate_dof_is_not_the_normal_quantile(self) -> None:
        # The old scipy-less table used the normal 1.645 beyond 9 dof.
        assert _t_critical(0.90, 30) == pytest.approx(1.6973, abs=1e-4)

    def test_zero_dof_is_zero(self) -> None:
        assert _t_critical(0.9, 0) == 0.0

    def test_invalid_confidence_is_rejected(self) -> None:
        for confidence in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                t_critical(confidence, 4)


#: Published two-sided Student-t critical values (three decimals), the table
#: the scipy-less path used to read; kept here as reference data.
_PUBLISHED_T_TABLES = {
    0.90: {1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015, 6: 1.943, 7: 1.895, 8: 1.860, 9: 1.833},
    0.95: {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262},
    0.99: {1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707, 7: 3.499, 8: 3.355, 9: 3.250},
}


class TestTCriticalFallback:
    """Where the old scipy-less table was right, the exact quantile agrees."""

    def test_confidence_99_uses_the_99_table(self) -> None:
        # Before the table picker was fixed, any confidence > 0.9 read the 95% row (2.776).
        assert _t_critical(0.99, 4) == pytest.approx(4.604, abs=5e-4)
        for dof, tabulated in _PUBLISHED_T_TABLES[0.99].items():
            assert _t_critical(0.99, dof) == pytest.approx(tabulated, abs=5e-4), dof


def test_t_tables_agree_with_scipy_when_available() -> None:
    for confidence, table in _PUBLISHED_T_TABLES.items():
        for dof, tabulated in table.items():
            assert _t_critical(confidence, dof) == pytest.approx(tabulated, abs=5e-4)
    try:
        from scipy import stats as scipy_stats
    except ImportError:  # pragma: no cover - scipy is in the test extra
        return
    for confidence, table in _PUBLISHED_T_TABLES.items():
        for dof, tabulated in table.items():
            exact = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
            assert tabulated == pytest.approx(exact, abs=5e-3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=20))
def test_property_interval_contains_sample_mean(values: list[float]) -> None:
    interval = confidence_interval(values, confidence=0.9)
    assert interval.low <= mean(values) <= interval.high
    assert interval.half_width >= 0.0


def _metrics_with_energy(energy: dict, duration: float = 100.0) -> RunMetrics:
    return RunMetrics(
        protocol="X",
        duration=duration,
        average_duty_cycle=0.1,
        duty_cycle_per_node={},
        duty_cycle_by_rank={},
        average_query_latency=0.0,
        max_query_latency=0.0,
        deliveries=0,
        delivery_ratio=0.0,
        energy_per_node=energy,
    )


CHAIN_TREE = RoutingTree(root=0, parent={1: 0, 2: 1, 3: 2})


class TestLifetime:
    def test_higher_power_nodes_die_first(self) -> None:
        metrics = _metrics_with_energy({0: 100.0, 1: 50.0, 2: 10.0, 3: 5.0})
        estimate = estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=1000.0)
        assert estimate.first_death_node == 0
        assert estimate.per_node_lifetime[0] == pytest.approx(1000.0 / (100.0 / 100.0))
        assert estimate.per_node_lifetime[3] > estimate.per_node_lifetime[0]

    def test_partition_time_ignores_leaf_deaths(self) -> None:
        # The leaf burns the most energy, but the partition time is set by the
        # first interior node to die.
        metrics = _metrics_with_energy({0: 10.0, 1: 20.0, 2: 30.0, 3: 200.0})
        estimate = estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=1000.0)
        assert estimate.first_death_node == 3
        assert estimate.first_partition > estimate.first_death
        assert estimate.first_partition == pytest.approx(1000.0 / (30.0 / 100.0))

    def test_baseline_power_shortens_lifetime(self) -> None:
        metrics = _metrics_with_energy({0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0})
        radio_only = estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=1000.0)
        with_cpu = estimate_lifetime(
            metrics, CHAIN_TREE, battery_capacity_j=1000.0, baseline_power_w=0.01
        )
        assert with_cpu.first_death < radio_only.first_death

    def test_zero_energy_node_lives_forever(self) -> None:
        metrics = _metrics_with_energy({0: 0.0, 1: 10.0, 2: 10.0, 3: 10.0})
        estimate = estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=1000.0)
        assert estimate.per_node_lifetime[0] == float("inf")

    def test_validation(self) -> None:
        metrics = _metrics_with_energy({0: 1.0})
        with pytest.raises(ValueError):
            estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=0.0)
        empty = _metrics_with_energy({})
        with pytest.raises(ValueError):
            estimate_lifetime(empty, CHAIN_TREE)

    def test_lifetime_by_rank(self) -> None:
        metrics = _metrics_with_energy({0: 40.0, 1: 30.0, 2: 20.0, 3: 10.0})
        estimate = estimate_lifetime(metrics, CHAIN_TREE, battery_capacity_j=1000.0)
        by_rank = lifetime_by_rank(estimate, CHAIN_TREE)
        # Rank 3 is the root (most energy, shortest lifetime), rank 0 the leaf.
        assert by_rank[3] < by_rank[0]

    def test_compare_lifetimes(self) -> None:
        metrics_fast = _metrics_with_energy({0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0})
        metrics_slow = _metrics_with_energy({0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0})
        estimates = {
            "SPAN": estimate_lifetime(metrics_fast, CHAIN_TREE, battery_capacity_j=1000.0),
            "DTS-SS": estimate_lifetime(metrics_slow, CHAIN_TREE, battery_capacity_j=1000.0),
        }
        raw = compare_lifetimes(estimates)
        assert raw["DTS-SS"] > raw["SPAN"]
        normalised = compare_lifetimes(estimates, reference="SPAN")
        assert normalised["SPAN"] == pytest.approx(1.0)
        assert normalised["DTS-SS"] == pytest.approx(10.0)
        with pytest.raises(KeyError):
            compare_lifetimes(estimates, reference="PSM")

    def test_default_battery_constant_is_two_aa_cells(self) -> None:
        assert DEFAULT_BATTERY_CAPACITY_J == pytest.approx(28080.0)

    def test_end_to_end_lifetime_ordering_dts_vs_span(self) -> None:
        """DTS-SS's lower duty cycle translates into a longer projected lifetime."""
        from repro.experiments.config import smoke_scale
        from repro.experiments.runner import build_scenario_topology
        from repro.experiments.scenarios import rate_sweep_workload
        from repro.orchestrator.api import ExperimentSpec, run_sweep
        from repro.routing.tree import build_routing_tree

        scenario = smoke_scale()
        topology = build_scenario_topology(scenario, scenario.seed)
        tree = build_routing_tree(
            topology, root=topology.center_node(),
            max_distance_from_root=scenario.max_distance_from_root,
        )
        specs = [
            ExperimentSpec(scenario, protocol, workload=rate_sweep_workload(1.0), num_runs=1)
            for protocol in ("DTS-SS", "SPAN")
        ]
        estimates = {
            result.protocol: estimate_lifetime(result.metrics, tree) for result in run_sweep(specs)
        }
        assert estimates["DTS-SS"].first_death > estimates["SPAN"].first_death

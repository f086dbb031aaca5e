"""Tests for the experiment harness: configs, metrics, runner, tables, figures."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    ScenarioConfig,
    paper_scale,
    reduced_scale,
    smoke_scale,
)
from repro.experiments.metrics import (
    DeliveryLog,
    RunMetrics,
    average_metrics,
    collect_metrics,
    expected_periods,
)
from repro.experiments.runner import ALL_PROTOCOLS, build_protocol_suite
from repro.experiments.scenarios import (
    SCALES,
    deadline_sweep_workload,
    query_count_workload,
    rate_sweep_workload,
)
from repro.experiments.tables import FigureResult, Series, comparison_table
from repro.net.node import build_network
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.net.topology import Topology
from repro.query.query import QuerySpec
from repro.query.report import DataReport
from repro.query.aggregation import AggregationFunction, PartialAggregate
from repro.radio.energy import IDEAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


class TestScenarioConfig:
    def test_paper_scale_matches_section5(self) -> None:
        scenario = paper_scale()
        assert scenario.num_nodes == 80
        assert scenario.area == (500.0, 500.0)
        assert scenario.comm_range == 125.0
        assert scenario.max_distance_from_root == 300.0
        assert scenario.duration == 200.0
        assert scenario.num_runs == 5
        assert scenario.mac_config.bandwidth_bps == pytest.approx(1e6)

    def test_reduced_and_smoke_scales_are_smaller(self) -> None:
        assert reduced_scale().num_nodes < paper_scale().num_nodes
        assert smoke_scale().num_nodes < reduced_scale().num_nodes
        assert reduced_scale().duration < paper_scale().duration

    def test_with_overrides(self) -> None:
        scenario = reduced_scale().with_overrides(duration=5.0, break_even_time=0.01)
        assert scenario.duration == 5.0
        assert scenario.break_even_time == 0.01
        assert scenario.num_nodes == reduced_scale().num_nodes

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            ScenarioConfig(num_nodes=1)
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(num_runs=0)


class TestScenarios:
    def test_sweeps_change_with_scale(self) -> None:
        paper, reduced, smoke = SCALES["paper"], SCALES["reduced"], SCALES["smoke"]
        assert (paper.rates, paper.counts) == ((1.0, 2.0, 3.0, 4.0, 5.0), tuple(range(1, 11)))
        for grid in ("rates", "counts", "deadlines"):
            assert len(getattr(paper, grid)) > len(getattr(reduced, grid))
            assert getattr(smoke, grid) == getattr(reduced, grid)

    def test_rate_sweep_workload(self) -> None:
        workload = rate_sweep_workload(5.0)
        assert workload.base_rate_hz == 5.0
        assert workload.queries_per_class == 1
        assert workload.total_queries == 3

    def test_query_count_workload_uses_base_rate_02(self) -> None:
        workload = query_count_workload(4)
        assert workload.base_rate_hz == pytest.approx(0.2)
        assert workload.total_queries == 12

    def test_deadline_sweep_workload(self) -> None:
        workload = deadline_sweep_workload(0.3)
        assert workload.deadline == pytest.approx(0.3)


class TestMetrics:
    def _report(self, query_id: int, k: int, nominal: float) -> DataReport:
        return DataReport(
            query_id=query_id,
            report_index=k,
            aggregate=PartialAggregate.from_sample(AggregationFunction.AVG, 1.0),
            nominal_time=nominal,
            generated_at=nominal,
        )

    def test_delivery_log_latency(self) -> None:
        log = DeliveryLog()
        log(1, 0, self._report(1, 0, nominal=2.0), 2.5)
        log(1, 1, self._report(1, 1, nominal=3.0), 3.25)
        assert len(log) == 2
        assert log.latencies() == [pytest.approx(0.5), pytest.approx(0.25)]
        assert log.latencies(since=3.0) == [pytest.approx(0.25)]

    def test_expected_periods(self) -> None:
        query = QuerySpec(query_id=1, period=1.0, start_time=2.0)
        assert expected_periods(query, duration=10.0) == 9
        assert expected_periods(query, duration=10.0, margin=1.0) == 8
        assert expected_periods(query, duration=1.0) == 0

    def test_average_metrics(self) -> None:
        def metrics(duty: float, latency: float) -> RunMetrics:
            return RunMetrics(
                protocol="X",
                duration=10.0,
                average_duty_cycle=duty,
                duty_cycle_per_node={0: duty},
                duty_cycle_by_rank={0: duty},
                average_query_latency=latency,
                max_query_latency=latency,
                deliveries=10,
                delivery_ratio=1.0,
                energy_per_node={0: duty * 10},
                sleep_intervals=[0.1],
            )

        merged = average_metrics([metrics(0.2, 0.1), metrics(0.4, 0.3)])
        assert merged.average_duty_cycle == pytest.approx(0.3)
        assert merged.average_query_latency == pytest.approx(0.2)
        assert merged.duty_cycle_per_node[0] == pytest.approx(0.3)
        assert len(merged.sleep_intervals) == 2
        with pytest.raises(ValueError):
            average_metrics([])

    def test_average_metrics_single_run_passthrough(self) -> None:
        log = DeliveryLog()
        single = RunMetrics(
            protocol="X",
            duration=1.0,
            average_duty_cycle=0.5,
            duty_cycle_per_node={},
            duty_cycle_by_rank={},
            average_query_latency=0.0,
            max_query_latency=0.0,
            deliveries=0,
            delivery_ratio=0.0,
            energy_per_node={},
        )
        assert average_metrics([single]) is single


class TestDeliveryRatio:
    """Regression: duplicate root deliveries must not inflate the ratio."""

    def _collect(self, sim, line_topology, deliveries, queries, duration):
        network = build_network(sim, line_topology, power_profile=IDEAL)
        tree = build_routing_tree(line_topology)
        return collect_metrics("X", network, tree, deliveries, queries, duration)

    def _deliver(self, log: DeliveryLog, query_id: int, k: int, nominal: float) -> None:
        report = DataReport(
            query_id=query_id,
            report_index=k,
            aggregate=PartialAggregate.from_sample(AggregationFunction.AVG, 1.0),
            nominal_time=nominal,
            generated_at=nominal,
        )
        log(query_id, k, report, nominal + 0.1)

    def test_duplicate_deliveries_counted_once(self, sim, line_topology) -> None:
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0)
        log = DeliveryLog()
        # 5 expected periods (k = 0..4: duration 5, margin = one period);
        # period 0 is delivered four times (re-forwarded duplicates at the
        # root) and period 1 once -- only 2 periods actually made it.
        for _ in range(4):
            self._deliver(log, 1, 0, nominal=0.0)
        self._deliver(log, 1, 1, nominal=1.0)
        metrics = self._collect(sim, line_topology, log, [query], duration=5.0)
        # Pre-fix: min(1.0, 5/5) == 1.0 although 3 of 5 periods were lost.
        assert metrics.delivery_ratio == pytest.approx(2.0 / 5.0)
        assert metrics.deliveries == 5  # the raw count still sees duplicates

    def test_unique_deliveries_give_full_ratio(self, sim, line_topology) -> None:
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0)
        log = DeliveryLog()
        for k in range(5):
            self._deliver(log, 1, k, nominal=float(k))
        metrics = self._collect(sim, line_topology, log, [query], duration=5.0)
        assert metrics.delivery_ratio == pytest.approx(1.0)
        # No duplicates: distinct (query, period) pairs == raw deliveries.
        pairs = {(r.query_id, r.report_index) for r in log.records}
        assert len(pairs) == len(log.records)

    def test_margin_periods_do_not_push_ratio_past_one(self, sim, line_topology) -> None:
        # A delivery for a period inside the end-of-run margin is excluded
        # from the numerator just as it is from the denominator.
        query = QuerySpec(query_id=1, period=1.0, start_time=0.0)
        log = DeliveryLog()
        for k in range(6):  # period 5 falls past the margin-trimmed horizon
            self._deliver(log, 1, k, nominal=float(k))
        metrics = self._collect(sim, line_topology, log, [query], duration=5.0)
        assert metrics.delivery_ratio == pytest.approx(1.0)


class TestTables:
    def test_series_validation(self) -> None:
        with pytest.raises(ValueError):
            Series(name="x", x=[1.0], y=[])

    def test_figure_table_rendering(self) -> None:
        figure = FigureResult(
            figure_id="Figure X",
            title="test",
            x_label="rate",
            y_label="duty",
            series=[
                Series(name="A", x=[1.0, 2.0], y=[0.1, 0.2]),
                Series(name="B", x=[1.0], y=[0.3]),
            ],
            notes={"knee": 1.0},
        )
        table = figure.to_table()
        assert "Figure X" in table
        assert "rate" in table and "A" in table and "B" in table
        assert "-" in table  # missing B value at x=2
        assert "knee" in table
        assert figure.get("A").value_at(2.0) == pytest.approx(0.2)
        with pytest.raises(KeyError):
            figure.get("missing")

    def test_comparison_table(self) -> None:
        text = comparison_table(
            {"DTS-SS": {"duty": 0.1, "latency": 0.02}, "SPAN": {"duty": 0.5, "latency": 0.01}},
            ["duty", "latency"],
        )
        assert "DTS-SS" in text and "SPAN" in text and "duty" in text


class TestRunner:
    def test_unknown_protocol_rejected(self) -> None:
        sim = Simulator(seed=0)
        topo = Topology.line(3, spacing=100.0, comm_range=120.0)
        network = build_network(sim, topo, power_profile=IDEAL)
        tree = build_routing_tree(topo, root=0)
        with pytest.raises(ValueError):
            build_protocol_suite("TDMA", sim, network, tree, on_root_delivery=lambda *a: None)

    def test_every_known_protocol_builds(self) -> None:
        for protocol in ALL_PROTOCOLS:
            sim = Simulator(seed=0)
            topo = Topology.line(3, spacing=100.0, comm_range=120.0)
            network = build_network(sim, topo, power_profile=IDEAL)
            tree = build_routing_tree(topo, root=0)
            suite = build_protocol_suite(
                protocol, sim, network, tree, on_root_delivery=lambda *a: None
            )
            assert suite.name == protocol

    def test_run_experiment_requires_exactly_one_workload_source(self) -> None:
        scenario = smoke_scale()
        with pytest.raises(ValueError):
            ExperimentSpec(scenario, "DTS-SS")
        with pytest.raises(ValueError):
            ExperimentSpec(
                scenario,
                "DTS-SS",
                workload=rate_sweep_workload(1.0),
                queries=[QuerySpec(query_id=1, period=1.0)],
            )

    def test_run_experiment_smoke(self) -> None:
        scenario = smoke_scale()
        (result,) = run_sweep(
            [ExperimentSpec(scenario, "DTS-SS", workload=rate_sweep_workload(1.0), num_runs=1)]
        )
        assert result.protocol == "DTS-SS"
        assert result.metrics.deliveries > 0
        assert 0.0 < result.metrics.average_duty_cycle < 1.0
        assert result.metrics.delivery_ratio > 0.8
        assert result.metrics.average_query_latency > 0.0
        assert "overhead_bits_per_report" in result.extras

    def test_run_experiment_with_fixed_queries_and_replications(self) -> None:
        scenario = smoke_scale().with_overrides(duration=8.0)
        queries = [QuerySpec(query_id=1, period=1.0, start_time=1.0)]
        (result,) = run_sweep([ExperimentSpec(scenario, "NTS-SS", queries=queries, num_runs=2)])
        assert len(result.runs) == 2
        assert result.metrics.deliveries > 0

    def test_protocol_comparison_smoke(self) -> None:
        scenario = smoke_scale()
        dts, span = run_sweep(
            [
                ExperimentSpec(scenario, protocol, workload=rate_sweep_workload(1.0), num_runs=1)
                for protocol in ("DTS-SS", "SPAN")
            ]
        )
        assert (dts.protocol, span.protocol) == ("DTS-SS", "SPAN")
        # The qualitative headline: the backbone protocol burns more energy.
        assert dts.metrics.average_duty_cycle < span.metrics.average_duty_cycle

    def test_replications_are_deterministic_for_fixed_seed(self) -> None:
        scenario = smoke_scale()
        spec = ExperimentSpec(scenario, "NTS-SS", workload=rate_sweep_workload(1.0), num_runs=1)
        (first,) = run_sweep([spec])
        (second,) = run_sweep([spec])
        assert first.metrics.average_duty_cycle == pytest.approx(
            second.metrics.average_duty_cycle
        )
        assert first.metrics.average_query_latency == pytest.approx(
            second.metrics.average_query_latency
        )

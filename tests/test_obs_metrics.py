"""Tests for the run counters, the stats adapters, and counters-on-RunMetrics.

Covers the duck-typed stats adapters, the counters dict they build from a
real smoke run (per-node sums, sorted keys), the engine's derived counters,
and the counters dict's trip through the orchestrator serialization.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.metrics import RunMetrics, average_metrics
from repro.experiments.runner import assemble_run, run_single
from repro.experiments.scenarios import rate_sweep_workload
from repro.obs.adapters import collect_run_counters, stats_as_mapping
from repro.orchestrator.jobs import SCHEMA_VERSION, metrics_from_dict, metrics_to_dict
from repro.query.workload import generate_queries
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def smoke_run():
    """A finished smoke-scale DTS-SS run: ``(sim, network, suite)``."""
    queries = generate_queries(rate_sweep_workload(2.0), seed=2)
    run = assemble_run(smoke_scale(), "DTS-SS", queries, 2)
    run.execute()
    return run.sim, run.network, run.suite


def _summed(prefix: str, stats_objects) -> dict:
    totals: dict = {}
    for stats in stats_objects:
        for key, value in stats_as_mapping(stats).items():
            totals[f"{prefix}.{key}"] = totals.get(f"{prefix}.{key}", 0.0) + value
    return totals


class TestRunCounters:
    def test_per_node_stats_are_summed(self, smoke_run) -> None:
        sim, network, suite = smoke_run
        counters = collect_run_counters(sim, network, suite)
        for prefix, stats_objects in (
            ("mac", [node.mac.stats for node in network.nodes.values()]),
            ("safe_sleep", [node.safe_sleep.stats for node in suite.nodes.values()]),
        ):
            summed = {key: value for key, value in counters.items() if key.startswith(prefix + ".")}
            assert summed == _summed(prefix, stats_objects), prefix
        assert counters["mac.frames_sent"] > 0
        assert counters["safe_sleep.checks"] > 0

    def test_keys_come_back_sorted(self, smoke_run) -> None:
        sim, network, suite = smoke_run
        counters = collect_run_counters(sim, network, suite, wall_seconds=1.0)
        assert list(counters) == sorted(counters)
        for prefix in ("engine.", "run.", "channel.", "mac.", "shaper.", "query_service."):
            assert any(key.startswith(prefix) for key in counters), prefix

    def test_negative_count_raises(self) -> None:
        stats = SimpleNamespace(as_dict=lambda: {"frames_sent": -1})
        network = SimpleNamespace(
            channel=None, nodes={0: SimpleNamespace(mac=SimpleNamespace(stats=stats))}
        )
        with pytest.raises(ValueError, match="mac.frames_sent"):
            collect_run_counters(Simulator(seed=0), network)


class TestStatsAdapters:
    def test_as_dict_objects_and_dataclasses(self) -> None:
        from repro.core.shaper import ShaperStats
        from repro.net.channel import ChannelStats

        channel = ChannelStats()
        channel.transmissions = 7
        assert stats_as_mapping(channel)["transmissions"] == 7.0
        shaper = ShaperStats(reports_observed=3)
        assert stats_as_mapping(shaper)["reports_observed"] == 3.0

    def test_unknown_objects_yield_empty(self) -> None:
        assert stats_as_mapping(None) == {}
        assert stats_as_mapping(object()) == {}

    def test_engine_counters_without_models(self) -> None:
        sim = Simulator(seed=1)
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        cancelled = sim.schedule_at(10.0, lambda: None)
        sim.cancel(cancelled)
        sim.run()
        counters = collect_run_counters(sim, wall_seconds=0.5)
        assert counters["engine.events_processed"] == 5.0
        assert counters["engine.events_scheduled"] == 6.0
        assert counters["engine.events_cancelled"] == 1.0
        assert counters["engine.peak_heap_size"] >= 5.0
        assert counters["run.wall_seconds"] == 0.5
        # The queue drains at t=4.0 (the cancelled t=10 event never fires).
        assert counters["engine.sim_time"] == 4.0
        assert counters["run.wall_seconds_per_sim_second"] == pytest.approx(0.125)


class TestEngineAccounting:
    def test_event_identity_scheduled_equals_processed_pending_cancelled(self) -> None:
        sim = Simulator(seed=0)
        sim.schedule_at(1.0, lambda: None)
        live = sim.schedule_at(50.0, lambda: None)  # stays pending
        dead = sim.schedule_at(2.0, lambda: None)
        sim.cancel(dead)
        sim.run(until=10.0)
        assert sim.scheduled_events == 3
        assert sim.processed_events == 1
        assert sim.pending_events == 1
        assert sim.cancelled_events == 1
        assert (
            sim.scheduled_events
            == sim.processed_events + sim.pending_events + sim.cancelled_events
        )
        assert live[3] is not None

    def test_peak_heap_size_tracks_high_water_mark(self) -> None:
        sim = Simulator(seed=0)

        def burst() -> None:
            for i in range(10):
                sim.schedule_in(1.0 + i, lambda: None)

        sim.schedule_at(0.5, burst)
        assert sim.peak_heap_size == 0  # run() has not observed anything yet
        sim.run()
        assert sim.peak_heap_size == 10


class TestCountersOnRunMetrics:
    @pytest.fixture(scope="class")
    def smoke_metrics(self) -> RunMetrics:
        scenario = smoke_scale()
        queries = generate_queries(rate_sweep_workload(2.0), seed=2)
        metrics, _ = run_single(scenario, "DTS-SS", queries, 2)
        return metrics

    def test_real_run_populates_all_layers(self, smoke_metrics: RunMetrics) -> None:
        counters = smoke_metrics.counters
        for prefix in ("engine.", "channel.", "mac.", "shaper.", "safe_sleep.", "query_service."):
            assert any(key.startswith(prefix) for key in counters), prefix
        assert counters["engine.events_processed"] > 0
        assert counters["engine.peak_heap_size"] > 0
        assert counters["run.wall_seconds"] > 0
        assert counters["channel.transmissions"] == smoke_metrics.channel_stats["transmissions"]

    def test_counters_survive_schema_round_trip(self, smoke_metrics: RunMetrics) -> None:
        assert SCHEMA_VERSION >= 4  # counters entered the schema at v4
        restored = metrics_from_dict(json.loads(json.dumps(metrics_to_dict(smoke_metrics))))
        assert restored.counters == smoke_metrics.counters
        assert restored == smoke_metrics

    def test_equality_ignores_wall_clock_counters(self, smoke_metrics: RunMetrics) -> None:
        import dataclasses

        twin = dataclasses.replace(smoke_metrics)
        twin.counters = dict(smoke_metrics.counters)
        twin.counters["run.wall_seconds"] = 999.0
        assert twin == smoke_metrics  # outcome equality, not measurement cost

    def test_average_metrics_merges_counters_by_mean(self, smoke_metrics: RunMetrics) -> None:
        import dataclasses

        a = dataclasses.replace(smoke_metrics)
        b = dataclasses.replace(smoke_metrics)
        a.counters = {"engine.events_processed": 100.0, "run.wall_seconds": 2.0}
        b.counters = {"engine.events_processed": 300.0, "only_in_b": 4.0}
        merged = average_metrics([a, b])
        assert merged.counters["engine.events_processed"] == 200.0
        assert merged.counters["run.wall_seconds"] == 2.0  # keys average where present
        assert merged.counters["only_in_b"] == 4.0

"""Tests for the sweep orchestrator: jobs, store, progress and ``run_sweep``."""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.metrics import RunMetrics
from repro.experiments.runner import run_single
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.orchestrator.codec import decode, encode
from repro.orchestrator.jobs import RunJob, metrics_from_dict, metrics_to_dict
from repro.orchestrator.progress import ProgressReporter
from repro.orchestrator.store import ResultStore
from repro.query.query import QuerySpec, SourceSelection
from repro.query.workload import WorkloadSpec
from repro.radio.energy import MICA2_TYPICAL


def _workload() -> object:
    return rate_sweep_workload(1.0)


def _spec(num_runs: int = 2, **overrides) -> ExperimentSpec:
    fields = dict(scenario=smoke_scale(), protocol="NTS-SS", workload=_workload())
    return ExperimentSpec(**{**fields, **overrides}, num_runs=num_runs)


def _jobs(num_runs: int = 2):
    return _spec(num_runs).expand()


def _cached_flags(results) -> list:
    return [run.cached for result in results for run in result.runs]


class TestSerialization:
    def test_scenario_round_trip(self) -> None:
        scenario = smoke_scale().with_overrides(
            power_profile=MICA2_TYPICAL, break_even_time=0.0025, measure_from=1.0
        )
        restored = decode(ScenarioConfig, encode(scenario))
        assert restored == scenario

    def test_workload_round_trip(self) -> None:
        workload = rate_sweep_workload(2.5, deadline=0.3)
        assert decode(WorkloadSpec, encode(workload)) == workload

    def test_query_round_trip_policy_and_explicit_sources(self) -> None:
        policy_query = QuerySpec(query_id=1, period=0.5, start_time=2.0)
        explicit_query = QuerySpec(
            query_id=2, period=1.0, sources=frozenset({3, 1, 2}), deadline=0.75
        )
        assert decode(QuerySpec, encode(policy_query)) == policy_query
        restored = decode(QuerySpec, encode(explicit_query))
        assert restored == explicit_query
        assert restored.sources == frozenset({1, 2, 3})

    def test_metrics_round_trip_is_exact(self) -> None:
        metrics = RunMetrics(
            protocol="NTS-SS",
            duration=12.0,
            average_duty_cycle=0.123456789012345,
            duty_cycle_per_node={0: 0.1, 7: 0.2},
            duty_cycle_by_rank={0: 0.1, 1: 0.2},
            average_query_latency=0.0123,
            max_query_latency=0.5,
            deliveries=42,
            delivery_ratio=0.97,
            energy_per_node={0: 1.5, 7: 2.5},
            sleep_intervals=[0.01, 0.02],
            channel_stats={"tx": 10},
        )
        restored = metrics_from_dict(json.loads(json.dumps(metrics_to_dict(metrics))))
        assert restored == metrics
        assert all(isinstance(key, int) for key in restored.duty_cycle_per_node)


class TestRunJob:
    def test_requires_exactly_one_workload_source(self) -> None:
        scenario = smoke_scale()
        with pytest.raises(ValueError):
            RunJob(scenario=scenario, protocol="NTS-SS", seed=1)
        with pytest.raises(ValueError):
            RunJob(
                scenario=scenario,
                protocol="NTS-SS",
                seed=1,
                workload=_workload(),
                queries=(QuerySpec(query_id=1, period=1.0),),
            )

    def test_digest_is_stable_and_parameter_sensitive(self) -> None:
        job_a, job_b = _jobs(num_runs=2)
        assert job_a.digest == _jobs(num_runs=2)[0].digest
        assert job_a.digest != job_b.digest  # different seeds
        other_protocol = RunJob(
            scenario=job_a.scenario, protocol="DTS-SS", seed=job_a.seed, workload=job_a.workload
        )
        assert other_protocol.digest != job_a.digest

    def test_dict_round_trip_preserves_digest(self) -> None:
        for job in _jobs(num_runs=2):
            assert RunJob.from_dict(json.loads(json.dumps(job.to_dict()))).digest == job.digest

    def test_resolve_queries_is_deterministic_per_seed(self) -> None:
        job_a, job_b = _jobs(num_runs=2)
        assert job_a.resolve_queries() == job_a.resolve_queries()
        starts_a = [q.start_time for q in job_a.resolve_queries()]
        starts_b = [q.start_time for q in job_b.resolve_queries()]
        assert starts_a != starts_b  # replication seeds re-randomize starts

    def test_spec_expand_seeds_replications(self) -> None:
        scenario = smoke_scale()
        jobs = _spec(num_runs=3).expand()
        assert [job.seed for job in jobs] == [scenario.seed, scenario.seed + 1, scenario.seed + 2]


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path) -> None:
        store = ResultStore(tmp_path / "cache")
        store.put("abc", {"metrics": {"x": 1.0}})
        assert "abc" in store
        assert store.get("abc")["metrics"] == {"x": 1.0}
        assert store.get("missing") is None

    def test_survives_reopen_and_truncated_tail(self, tmp_path) -> None:
        store = ResultStore(tmp_path / "cache")
        store.put("abc", {"value": 1})
        store.put("def", {"value": 2})
        with store.shard_path("ghi").open("a", encoding="utf-8") as handle:
            handle.write('{"digest": "ghi", "truncat')
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 2
        assert reopened.get("abc")["value"] == 1
        assert "ghi" not in reopened

    def test_ignores_records_from_other_schema_versions(self, tmp_path) -> None:
        store = ResultStore(tmp_path / "cache")
        with store.shard_path("old").open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"digest": "old", "version": -1}) + "\n")
        assert "old" not in ResultStore(tmp_path / "cache")


class TestSweepExecution:
    def test_parallel_matches_serial_bit_for_bit(self) -> None:
        (serial,) = run_sweep([_spec(num_runs=4)], jobs=1)
        (parallel,) = run_sweep([_spec(num_runs=4)], jobs=4)
        assert len(serial.runs) == len(parallel.runs) == 4
        for a, b in zip(serial.runs, parallel.runs, strict=True):
            assert a.job.digest == b.job.digest
            assert a.metrics == b.metrics
            assert a.extras == b.extras

    def test_warm_store_returns_cached_without_rerunning(self, tmp_path, monkeypatch) -> None:
        store = ResultStore(tmp_path / "cache")
        (cold,) = run_sweep([_spec()], store=store)
        assert _cached_flags([cold]) == [False, False]
        assert len(store) == 2

        # Make any simulator execution explode: a warm sweep must not run one.
        monkeypatch.setattr(
            "repro.orchestrator.api.run_single",
            lambda *args, **kwargs: pytest.fail("simulator ran on a warm store"),
        )
        (warm,) = run_sweep([_spec()], store=store)
        assert _cached_flags([warm]) == [True, True]
        for a, b in zip(cold.runs, warm.runs, strict=True):
            assert a.metrics == b.metrics
            assert a.extras == b.extras

    def test_interrupted_sweep_resumes_from_store(self, tmp_path) -> None:
        run_sweep([_spec(num_runs=2)], store=tmp_path / "cache")  # the "interrupted" prefix
        resumed = run_sweep([_spec(num_runs=3)], store=ResultStore(tmp_path / "cache"))
        assert _cached_flags(resumed) == [True, True, False]

    def test_duplicate_jobs_execute_once(self, tmp_path, monkeypatch) -> None:
        runs = []
        monkeypatch.setattr(
            "repro.orchestrator.api.run_single",
            lambda *args: runs.append(args) or run_single(*args),
        )
        results = run_sweep([_spec(num_runs=1)] * 3, store=ResultStore(tmp_path / "cache"))
        assert len(results) == len({id(result.runs[0]) for result in results}) == 3
        # One simulator run; the duplicates are served from it as cached.
        assert len(runs) == 1
        assert _cached_flags(results) == [False, True, True]
        assert results[0].metrics == results[1].metrics == results[2].metrics

    def test_executor_rejects_zero_workers(self) -> None:
        with pytest.raises(ValueError):
            run_sweep([_spec(num_runs=1)], jobs=0)


class TestExperimentIntegration:
    def test_run_experiment_parallel_and_store_match_serial(self, tmp_path) -> None:
        (serial,) = run_sweep([_spec()])
        (parallel,) = run_sweep([_spec()], jobs=2)
        (stored,) = run_sweep([_spec()], store=tmp_path / "cache")
        (warm,) = run_sweep([_spec()], store=tmp_path / "cache")
        for other in (parallel, stored, warm):
            assert other.metrics == serial.metrics
            assert [run.metrics for run in other.runs] == [run.metrics for run in serial.runs]
            assert other.extras == serial.extras

    def test_experiment_records_per_replication_queries(self) -> None:
        (result,) = run_sweep([_spec()])
        per_run_queries = [run.job.resolve_queries() for run in result.runs]
        assert len(per_run_queries) == 2
        starts = [[q.start_time for q in queries] for queries in per_run_queries]
        assert starts[0] != starts[1]  # per-replication start-time randomization

    def test_fixed_queries_identical_across_replications(self) -> None:
        queries = [QuerySpec(query_id=1, period=1.0, start_time=1.0)]
        scenario = smoke_scale().with_overrides(duration=8.0)
        (result,) = run_sweep([_spec(scenario=scenario, workload=None, queries=queries)])
        assert [run.job.resolve_queries() for run in result.runs] == [queries, queries]

    def test_protocol_comparison_routes_through_orchestrator(self, tmp_path) -> None:
        specs = [_spec(num_runs=1, protocol=protocol) for protocol in ("NTS-SS", "SPAN")]
        cold = run_sweep(specs, store=tmp_path / "cache", label="compare")
        warm = run_sweep(specs, store=tmp_path / "cache", label="compare")
        assert [result.protocol for result in cold] == ["NTS-SS", "SPAN"]
        assert _cached_flags(warm) == [True, True]
        for a, b in zip(cold, warm, strict=True):
            assert b.metrics == a.metrics

    def test_run_sweep_preserves_spec_order(self) -> None:
        specs = [_spec(num_runs=1, protocol=protocol) for protocol in ("SPAN", "NTS-SS")]
        results = run_sweep(specs)
        assert [result.protocol for result in results] == ["SPAN", "NTS-SS"]

    def test_spec_requires_exactly_one_workload_source(self) -> None:
        with pytest.raises(ValueError):
            ExperimentSpec(scenario=smoke_scale(), protocol="NTS-SS")


class TestProgressReporter:
    def test_reports_counts_eta_and_summary(self) -> None:
        stream = io.StringIO()
        reporter = ProgressReporter(label="test", stream=stream, min_interval=0.0)
        reporter.start(3)
        assert reporter.eta() is None
        reporter.job_done(cached=True, label="a")
        reporter.job_done(cached=False, label="b")
        assert reporter.eta() is not None
        reporter.job_done(cached=False, label="c")
        reporter.finish()
        text = stream.getvalue()
        assert "[test] 3/3" in text
        assert "(1 cached)" in text
        assert "finished: 2 executed, 1 cached" in text

    def test_sweep_with_progress_stream(self) -> None:
        stream = io.StringIO()
        reporter = ProgressReporter(label="sweep", stream=stream, min_interval=0.0)
        run_sweep([_spec(num_runs=1)], progress=reporter)
        assert "1/1" in stream.getvalue()

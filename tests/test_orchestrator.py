"""Tests for the sweep orchestrator: jobs, store, executor, progress, api."""

from __future__ import annotations

import io
import json

import pytest

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.metrics import RunMetrics
from repro.experiments.runner import run_experiment, run_protocol_comparison
from repro.experiments.scenarios import rate_sweep_workload
from repro.orchestrator.api import ExperimentSpec, run_experiments
from repro.orchestrator.codec import decode, encode
from repro.orchestrator.executor import SweepExecutor
from repro.orchestrator.jobs import RunJob, expand_experiment, metrics_from_dict, metrics_to_dict
from repro.orchestrator.progress import ProgressReporter
from repro.orchestrator.store import ResultStore
from repro.query.query import QuerySpec, SourceSelection
from repro.query.workload import WorkloadSpec
from repro.radio.energy import MICA2_TYPICAL


def _workload() -> object:
    return rate_sweep_workload(1.0)


def _jobs(num_runs: int = 2):
    return expand_experiment(
        smoke_scale(), "NTS-SS", workload=_workload(), num_runs=num_runs
    )


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

    def test_expand_experiment_seeds_replications(self) -> None:
        scenario = smoke_scale()
        jobs = expand_experiment(scenario, "NTS-SS", workload=_workload(), num_runs=3)
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
        jobs = _jobs(num_runs=4)
        serial = SweepExecutor(workers=1).run(jobs)
        parallel = SweepExecutor(workers=4).run(jobs)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel, strict=True):
            assert a.job.digest == b.job.digest
            assert a.metrics == b.metrics
            assert a.extras == b.extras

    def test_warm_store_returns_cached_without_rerunning(self, tmp_path, monkeypatch) -> None:
        jobs = _jobs(num_runs=2)
        store = ResultStore(tmp_path / "cache")
        executor = SweepExecutor(workers=1, store=store)
        cold = executor.run(jobs)
        assert all(not result.cached for result in cold)
        assert (executor.last_executed, executor.last_cached) == (2, 0)
        assert len(store) == 2

        # Make any simulator execution explode: a warm sweep must not run one.
        monkeypatch.setattr(
            "repro.orchestrator.executor.run_single",
            lambda *args, **kwargs: pytest.fail("simulator ran on a warm store"),
        )
        warm = executor.run(jobs)
        assert all(result.cached for result in warm)
        assert (executor.last_executed, executor.last_cached) == (0, 2)
        for a, b in zip(cold, warm, strict=True):
            assert a.metrics == b.metrics
            assert a.extras == b.extras

    def test_interrupted_sweep_resumes_from_store(self, tmp_path) -> None:
        jobs = _jobs(num_runs=3)
        store = ResultStore(tmp_path / "cache")
        SweepExecutor(workers=1, store=store).run(jobs[:2])  # the "interrupted" prefix
        executor = SweepExecutor(workers=1, store=ResultStore(tmp_path / "cache"))
        executor.run(jobs)
        assert executor.last_cached == 2
        assert executor.last_executed == 1

    def test_duplicate_jobs_execute_once(self, tmp_path) -> None:
        job = _jobs(num_runs=1)[0]
        executor = SweepExecutor(workers=1, store=ResultStore(tmp_path / "cache"))
        results = executor.run([job, job, job])
        assert len(results) == 3
        assert len({id(result) for result in results}) == 1
        # One simulator run; the fanned-out duplicates count as cached.
        assert executor.last_executed == 1
        assert executor.last_cached == 2

    def test_executor_rejects_zero_workers(self) -> None:
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)


class TestExperimentIntegration:
    def test_run_experiment_parallel_and_store_match_serial(self, tmp_path) -> None:
        scenario = smoke_scale()
        workload = _workload()
        serial = run_experiment(scenario, "NTS-SS", workload=workload, num_runs=2)
        parallel = run_experiment(
            scenario, "NTS-SS", workload=workload, num_runs=2, jobs=2
        )
        stored = run_experiment(
            scenario, "NTS-SS", workload=workload, num_runs=2, store=tmp_path / "cache"
        )
        warm = run_experiment(
            scenario, "NTS-SS", workload=workload, num_runs=2, store=tmp_path / "cache"
        )
        for other in (parallel, stored, warm):
            assert other.metrics == serial.metrics
            assert other.per_run_metrics == serial.per_run_metrics
            assert other.extras == serial.extras

    def test_experiment_records_per_replication_queries(self) -> None:
        result = run_experiment(
            smoke_scale(), "NTS-SS", workload=_workload(), num_runs=2
        )
        assert len(result.per_run_queries) == 2
        assert result.queries == result.per_run_queries[0]
        starts = [[q.start_time for q in queries] for queries in result.per_run_queries]
        assert starts[0] != starts[1]  # per-replication start-time randomization

    def test_fixed_queries_identical_across_replications(self) -> None:
        queries = [QuerySpec(query_id=1, period=1.0, start_time=1.0)]
        result = run_experiment(
            smoke_scale().with_overrides(duration=8.0), "NTS-SS", queries=queries, num_runs=2
        )
        assert result.per_run_queries == [queries, queries]

    def test_protocol_comparison_routes_through_orchestrator(self, tmp_path) -> None:
        scenario = smoke_scale()
        cold = run_protocol_comparison(
            scenario,
            ["NTS-SS", "SPAN"],
            workload=_workload(),
            num_runs=1,
            store=tmp_path / "cache",
        )
        warm = run_protocol_comparison(
            scenario,
            ["NTS-SS", "SPAN"],
            workload=_workload(),
            num_runs=1,
            store=tmp_path / "cache",
        )
        assert set(cold) == {"NTS-SS", "SPAN"}
        for protocol in cold:
            assert warm[protocol].metrics == cold[protocol].metrics

    def test_run_experiments_preserves_spec_order(self) -> None:
        scenario = smoke_scale()
        specs = [
            ExperimentSpec(scenario=scenario, protocol=protocol, workload=_workload(), num_runs=1)
            for protocol in ("SPAN", "NTS-SS")
        ]
        results = run_experiments(specs)
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
        SweepExecutor(workers=1, progress=reporter).run(_jobs(num_runs=1))
        assert "1/1" in stream.getvalue()

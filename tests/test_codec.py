"""The derived spec codec: round trips, wire pins, what it refuses to decode,
and the errors derivation raises."""

import dataclasses
import json
from typing import Set, get_args, get_type_hints

import pytest

from repro.experiments.config import ScenarioConfig, smoke_scale
from repro.experiments.metrics import RunMetrics
from repro.experiments.scenarios import rate_sweep_workload
from repro.mac.base import MacConfig
from repro.net.loss import LossSpec
from repro.net.propagation import PropagationSpec
from repro.net.topology import FailureSchedule
from repro.orchestrator.codec import (
    SCHEMA_VERSION,
    CodecError,
    codec_for,
    decode,
    encode,
)
from repro.orchestrator.jobs import RunJob, metrics_from_dict, metrics_to_dict, query_to_dict
from repro.query.aggregation import AggregationFunction
from repro.query.query import QuerySpec, SourceSelection
from repro.query.workload import WorkloadSpec
from repro.radio.energy import PowerProfile

#: Every dataclass a result-store record crosses the JSON boundary as:
#: ``RunJob`` and ``RunMetrics`` and everything their fields nest.
WIRE_TYPES = (
    PowerProfile,
    MacConfig,
    PropagationSpec,
    LossSpec,
    FailureSchedule,
    ScenarioConfig,
    WorkloadSpec,
    QuerySpec,
    RunMetrics,
    RunJob,
)

#: ``RunJob.digest`` values that pin the wire form of explicit and policy
#: query sources, of a failure schedule's explicit events, and of the
#: optional nested specs.  Schema v8 re-pinned them: each equals the v7 wire
#: form with the version set to 8 (v7 itself dropped the ``topology`` and
#: ``mobility`` fields from v6).
FIXED_QUERY_JOB_DIGEST = "e9858f4918808af4a948484f90f7a0e8d2f615ee031ed63103874e328c9f82a8"
FAILURE_SCHEDULE_JOB_DIGEST = "34b119fd057f1ffa20b9987a86b6f23264bf7bcb785522f5431283fe666dbfb6"


def _sample_metrics() -> RunMetrics:
    return RunMetrics(
        protocol="DTS-SS",
        duration=12.0,
        average_duty_cycle=0.031,
        duty_cycle_per_node={0: 0.02, 3: 0.04},
        duty_cycle_by_rank={0: 0.02, 1: 0.04},
        average_query_latency=0.19,
        max_query_latency=0.6,
        deliveries=41,
        delivery_ratio=0.97,
        energy_per_node={0: 1.5, 3: 2.25},
        sleep_intervals=[0.01, 0.25, 0.031],
        channel_stats={"collisions": 4},
        counters={"engine.events_processed": 1234.0},
    )


def _sample_instances():
    """One representative instance per wire type."""
    scenario = smoke_scale().with_overrides(
        failure_schedule=FailureSchedule(
            fraction=0.1, window=(3.0, 9.0), explicit=((4.5, 7),)
        ),
    )
    workload = rate_sweep_workload(2.0)
    instances = {
        type(scenario.power_profile): scenario.power_profile,
        type(scenario.mac_config): scenario.mac_config,
        type(scenario.propagation): scenario.propagation,
        type(scenario.loss): scenario.loss,
        FailureSchedule: scenario.failure_schedule,
        type(scenario): scenario,
        type(workload): workload,
        QuerySpec: QuerySpec(
            query_id=7,
            period=0.5,
            start_time=1.25,
            sources=frozenset({2, 5}),
            deadline=0.4,
            duration=8.0,
        ),
        RunMetrics: _sample_metrics(),
        RunJob: RunJob(
            scenario=scenario, protocol="DTS-SS", seed=42, workload=workload
        ),
    }
    return instances


def _nested_dataclasses(cls: type) -> Set[type]:
    """``cls`` plus every dataclass reachable through its field annotations."""
    found = {cls}
    pending = [cls]
    while pending:
        for hint in get_type_hints(pending.pop()).values():
            stack = [hint]
            while stack:
                current = stack.pop()
                stack.extend(get_args(current))
                if dataclasses.is_dataclass(current) and current not in found:
                    found.add(current)
                    pending.append(current)
    return found


class TestRoundTrips:
    def test_wire_types_are_what_records_reach(self) -> None:
        reached = _nested_dataclasses(RunJob) | _nested_dataclasses(RunMetrics)
        assert reached == set(WIRE_TYPES)

    def test_every_wire_type_round_trips_through_json(self) -> None:
        instances = _sample_instances()
        assert set(instances) == set(WIRE_TYPES)
        for cls, instance in instances.items():
            wire = json.loads(json.dumps(encode(instance)))
            rebuilt = decode(cls, wire)
            assert rebuilt == instance, cls.__name__

    def test_fixed_query_job_round_trips(self) -> None:
        job = RunJob(
            scenario=smoke_scale(),
            protocol="PSM",
            seed=3,
            queries=(
                QuerySpec(query_id=1, period=0.5, sources=SourceSelection.ALL_NODES),
            ),
        )
        assert decode(RunJob, json.loads(json.dumps(encode(job)))) == job

    def test_encode_requires_dataclass(self) -> None:
        class NotADataclass:
            pass

        with pytest.raises(CodecError, match="not a dataclass"):
            encode(NotADataclass())


class TestWirePins:
    """The wire form is pinned by digest, not just by round trip."""

    def test_fixed_query_job_digest(self) -> None:
        job = RunJob(
            scenario=smoke_scale(),
            protocol="DTS-SS",
            seed=5,
            queries=(
                QuerySpec(
                    query_id=1,
                    period=0.5,
                    start_time=1.25,
                    sources=frozenset({7, 2, 5}),
                    aggregation=AggregationFunction.MAX,
                    deadline=0.4,
                    duration=8.0,
                ),
                QuerySpec(query_id=2, period=1.0, sources=SourceSelection.ALL_NODES),
            ),
        )
        assert encode(job)["queries"][0]["sources"] == {"nodes": [2, 5, 7]}
        assert encode(job)["queries"][1]["sources"] == {"policy": "all_nodes"}
        assert job.digest == FIXED_QUERY_JOB_DIGEST

    def test_failure_schedule_job_digest(self) -> None:
        scenario = smoke_scale().with_overrides(
            failure_schedule=FailureSchedule(
                fraction=0.1, window=(3.0, 9.0), explicit=((4.5, 7), (6.0, 3))
            ),
        )
        job = RunJob(
            scenario=scenario, protocol="PSM", seed=11, workload=rate_sweep_workload(2.0)
        )
        wire = encode(job)["scenario"]
        assert wire["failure_schedule"]["explicit"] == [[4.5, 7], [6.0, 3]]
        assert "mobility" not in wire and "topology" not in wire
        assert job.digest == FAILURE_SCHEDULE_JOB_DIGEST


class TestVersionGating:
    """The codec reads the current schema version only, with every field."""

    def test_missing_field_without_default_raises(self) -> None:
        data = metrics_to_dict(_sample_metrics())
        del data["protocol"]
        with pytest.raises(CodecError, match="protocol"):
            metrics_from_dict(data)

    def test_missing_ungated_field_with_default_raises(self) -> None:
        # `seed` has a dataclass default: a record without it is corrupt and
        # must not decode to the default.
        data = encode(smoke_scale())
        del data["seed"]
        with pytest.raises(CodecError, match="seed"):
            decode(ScenarioConfig, data)

    def test_run_job_from_dict_rejects_another_version(self) -> None:
        job = RunJob(
            scenario=smoke_scale(), protocol="DTS-SS", seed=9,
            workload=rate_sweep_workload(1.0),
        )
        payload = job.to_dict()
        assert payload["version"] == SCHEMA_VERSION == 8
        assert RunJob.from_dict(payload) == job
        # A job from a later schema is refused too, not read with today's fields.
        with pytest.raises(CodecError, match=f"v{SCHEMA_VERSION + 1}"):
            RunJob.from_dict(dict(payload, version=SCHEMA_VERSION + 1))


class TestDerivation:
    def test_unhandled_annotation_raises(self) -> None:
        @dataclasses.dataclass
        class Unhandled:
            members: Set[int]

        with pytest.raises(CodecError, match="Unhandled.members"):
            codec_for(Unhandled)

    def test_derivation_is_cached(self) -> None:
        assert codec_for(RunMetrics) is codec_for(RunMetrics)


class TestWrapperCompat:
    """The named entry points other modules call are the codec itself."""

    def test_metrics_and_query_helpers_match_codec(self) -> None:
        metrics = _sample_metrics()
        assert metrics_to_dict(metrics) == encode(metrics)
        query = QuerySpec(query_id=3, period=2.0)
        assert query_to_dict(query) == encode(query)

    def test_scenario_wrappers_match_codec(self) -> None:
        scenario = smoke_scale()
        job = RunJob(scenario=scenario, protocol="PSM", seed=2, workload=rate_sweep_workload(1.0))
        assert job.to_dict()["scenario"] == encode(scenario)
        assert decode(ScenarioConfig, json.loads(json.dumps(encode(scenario)))) == scenario
        assert RunJob.from_dict(job.to_dict()).scenario == scenario

    def test_workload_wrappers_match_codec(self) -> None:
        workload = rate_sweep_workload(5.0)
        job = RunJob(scenario=smoke_scale(), protocol="PSM", seed=2, workload=workload)
        assert job.to_dict()["workload"] == encode(workload)
        assert decode(WorkloadSpec, json.loads(json.dumps(encode(workload)))) == workload
        assert RunJob.from_dict(job.to_dict()).workload == workload

    def test_subclass_resolves_through_mro(self) -> None:
        # `kind` and `params` are declared on the shared base class.
        assert codec_for(LossSpec).cls is LossSpec
        assert [entry[0] for entry in codec_for(LossSpec).fields] == ["kind", "params"]

    def test_digest_is_stable_and_content_sensitive(self) -> None:
        scenario = smoke_scale()
        workload = rate_sweep_workload(2.0)
        job = RunJob(scenario=scenario, protocol="DTS-SS", seed=1, workload=workload)
        twin = RunJob(scenario=scenario, protocol="DTS-SS", seed=1, workload=workload)
        other = RunJob(scenario=scenario, protocol="PSM", seed=1, workload=workload)
        assert job.digest == twin.digest
        assert job.digest != other.digest

"""The declarative spec codec: round trips, version gating, wrapper compat."""

import json

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.metrics import RunMetrics
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.mobility import MobilitySpec
from repro.net.topology import FailureSchedule
from repro.orchestrator import codec
from repro.orchestrator.codec import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    CodecError,
    atom,
    codec_for,
    decode,
    encode,
    nested,
    registered_types,
)
from repro.orchestrator.jobs import (
    RunJob,
    metrics_from_dict,
    metrics_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    workload_from_dict,
    workload_to_dict,
)
from repro.query.query import QuerySpec, SourceSelection


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
    """One representative instance per registered type."""
    scenario = smoke_scale().with_overrides(
        failure_schedule=FailureSchedule(
            fraction=0.1, window=(3.0, 9.0), explicit=((4.5, 7),)
        ),
        mobility=MobilitySpec(kind="waypoint", params=(("speed", 1.5),)),
    )
    workload = rate_sweep_workload(2.0)
    instances = {
        type(scenario.power_profile): scenario.power_profile,
        type(scenario.mac_config): scenario.mac_config,
        type(scenario.topology): scenario.topology,
        type(scenario.propagation): scenario.propagation,
        type(scenario.loss): scenario.loss,
        MobilitySpec: scenario.mobility,
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


class TestRoundTrips:
    def test_every_registered_type_round_trips_through_json(self) -> None:
        instances = _sample_instances()
        missing = [t.__name__ for t in registered_types() if t not in instances]
        assert not missing, f"no sample instance for registered type(s) {missing}"
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

    def test_encode_requires_registration(self) -> None:
        class Unregistered:
            pass

        with pytest.raises(CodecError, match="no codec registered"):
            encode(Unregistered())


class TestVersionGating:
    def test_supported_versions_cover_current(self) -> None:
        assert SCHEMA_VERSION == 6
        assert SCHEMA_VERSION in SUPPORTED_VERSIONS
        assert set(SUPPORTED_VERSIONS) == {3, 4, 5, 6}

    def test_v3_metrics_without_counters_decode_to_empty(self) -> None:
        data = metrics_to_dict(_sample_metrics())
        del data["counters"]
        rebuilt = metrics_from_dict(data, version=3)
        assert rebuilt.counters == {}
        assert rebuilt.average_duty_cycle == pytest.approx(0.031)

    def test_missing_field_without_default_raises(self) -> None:
        data = metrics_to_dict(_sample_metrics())
        del data["protocol"]
        with pytest.raises(CodecError, match="protocol"):
            metrics_from_dict(data)

    def test_nested_decode_threads_record_version(self) -> None:
        # A synthetic pair of types: the inner one gained a field at v4, the
        # outer one nests it.  Decoding the outer at v3 must thread v3 down.
        class Inner:
            def __init__(self, value, extra="default"):
                self.value = value
                self.extra = extra

        class Outer:
            def __init__(self, inner):
                self.inner = inner

        codec.register(Inner, atom("value"), atom("extra", since=4, default="fallback"))
        codec.register(Outer, nested("inner", Inner))
        try:
            wire = {"inner": {"value": 1, "extra": "written-at-v4"}}
            assert decode(Outer, wire, version=4).inner.extra == "written-at-v4"
            assert decode(Outer, wire, version=3).inner.extra == "fallback"
        finally:
            codec._REGISTRY.pop(Inner, None)
            codec._REGISTRY.pop(Outer, None)

    def test_run_job_from_dict_honours_embedded_version(self) -> None:
        job = RunJob(
            scenario=smoke_scale(), protocol="DTS-SS", seed=9,
            workload=rate_sweep_workload(1.0),
        )
        payload = job.to_dict()
        assert payload["version"] == SCHEMA_VERSION
        v3 = dict(payload)
        v3["version"] = 3
        assert RunJob.from_dict(v3) == job


class TestWrapperCompat:
    """The retired hand-written helpers survive as shims over the codec."""

    def test_scenario_wrappers_match_codec(self) -> None:
        scenario = smoke_scale()
        assert scenario_to_dict(scenario) == encode(scenario)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_workload_wrappers_match_codec(self) -> None:
        workload = rate_sweep_workload(5.0)
        assert workload_to_dict(workload) == encode(workload)
        assert workload_from_dict(workload_to_dict(workload)) == workload

    def test_subclass_resolves_through_mro(self) -> None:
        assert codec_for(MobilitySpec).cls is MobilitySpec

    def test_digest_is_stable_and_content_sensitive(self) -> None:
        scenario = smoke_scale()
        workload = rate_sweep_workload(2.0)
        job = RunJob(scenario=scenario, protocol="DTS-SS", seed=1, workload=workload)
        twin = RunJob(scenario=scenario, protocol="DTS-SS", seed=1, workload=workload)
        other = RunJob(scenario=scenario, protocol="PSM", seed=1, workload=workload)
        assert job.digest == twin.digest
        assert job.digest != other.digest

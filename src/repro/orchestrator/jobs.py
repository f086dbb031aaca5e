"""Run jobs: the unit of work the orchestrator schedules and caches.

A :class:`RunJob` is one simulation run -- a ``(scenario, protocol,
workload-or-queries, seed)`` tuple, i.e. exactly the arguments of
:func:`repro.experiments.runner.run_single` plus the recipe for the queries.
Jobs are immutable, JSON-serializable, and carry a stable content digest:
two jobs with the same parameters hash to the same digest on any machine
and any Python version, which is what makes the on-disk result store
content-addressed and lets interrupted sweeps resume where they left off.

Serialization is declarative: every spec type that crosses the JSON
boundary (:class:`~repro.experiments.config.ScenarioConfig`,
:class:`~repro.query.workload.WorkloadSpec`,
:class:`~repro.query.query.QuerySpec`,
:class:`~repro.experiments.metrics.RunMetrics`, the four scenario-axis
specs, and :class:`RunJob` itself) registers its field table once with
:mod:`repro.orchestrator.codec`, and encode/decode/versioned-decode derive
from the registration.  The ``*_to_dict`` / ``*_from_dict`` helpers below
are thin compatibility wrappers over the registry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.config import ScenarioConfig
from ..experiments.metrics import RunMetrics
from ..mac.base import MacConfig
from ..net.loss import LossSpec
from ..net.mobility import MobilitySpec
from ..net.propagation import PropagationSpec
from ..net.topology import FailureSchedule, TopologySpec
from ..query.aggregation import AggregationFunction
from ..query.query import QuerySpec, SourceSelection
from ..query.workload import WorkloadSpec, generate_queries
from ..radio.energy import PowerProfile
from ..sim.rng import RandomStreams
from .codec import (
    SCHEMA_VERSION,
    atom,
    custom,
    decode,
    encode,
    enum_member,
    int_keyed,
    mapping,
    nested,
    nested_list,
    optional_nested,
    register,
    register_kind_params,
    seq,
    value_list,
)

__all__ = [
    "RunJob",
    "SCHEMA_VERSION",
    "expand_experiment",
    "failure_schedule_from_dict",
    "failure_schedule_to_dict",
    "loss_spec_from_dict",
    "loss_spec_to_dict",
    "metrics_from_dict",
    "metrics_to_dict",
    "mobility_spec_from_dict",
    "mobility_spec_to_dict",
    "propagation_spec_from_dict",
    "propagation_spec_to_dict",
    "query_from_dict",
    "query_to_dict",
    "scenario_from_dict",
    "scenario_to_dict",
    "topology_spec_from_dict",
    "topology_spec_to_dict",
    "workload_from_dict",
    "workload_to_dict",
]


# ---------------------------------------------------------------------------
# Codec registrations (each spec type lists its fields exactly once)
# ---------------------------------------------------------------------------

register(
    PowerProfile,
    atom("name"),
    atom("tx_power"),
    atom("rx_power"),
    atom("idle_power"),
    atom("sleep_power"),
    atom("transition_power"),
    atom("t_off_to_on"),
    atom("t_on_to_off"),
)

register(
    MacConfig,
    atom("bandwidth_bps"),
    atom("slot_time"),
    atom("sifs"),
    atom("difs"),
    atom("cw_min"),
    atom("cw_max"),
    atom("max_retries"),
    atom("use_acks"),
    atom("queue_capacity"),
    atom("header_bytes"),
    atom("ack_timeout_slack_slots"),
)

register_kind_params(TopologySpec)
register_kind_params(PropagationSpec)
register_kind_params(LossSpec)
register_kind_params(MobilitySpec)

register(
    FailureSchedule,
    atom("fraction"),
    seq("window"),
    custom(
        "explicit",
        lambda events: [list(event) for event in events],
        lambda data: tuple((t, n) for t, n in data),
    ),
)

register(
    ScenarioConfig,
    atom("num_nodes"),
    seq("area"),
    atom("comm_range"),
    atom("max_distance_from_root"),
    atom("duration"),
    atom("num_runs"),
    atom("seed"),
    nested("power_profile", PowerProfile),
    atom("break_even_time"),
    nested("mac_config", MacConfig),
    atom("measure_from"),
    nested("topology", TopologySpec),
    optional_nested("failure_schedule", FailureSchedule),
    nested("propagation", PropagationSpec),
    nested("loss", LossSpec),
    optional_nested("mobility", MobilitySpec),
)

register(
    WorkloadSpec,
    atom("base_rate_hz"),
    atom("queries_per_class"),
    seq("class_rate_ratio"),
    seq("start_window"),
    enum_member("aggregation", AggregationFunction),
    enum_member("sources", SourceSelection),
    atom("deadline"),
)


def _query_sources_encode(sources: Any) -> Dict[str, Any]:
    """A query's sources are polymorphic: a policy or explicit node ids."""
    if isinstance(sources, SourceSelection):
        return {"policy": sources.value}
    return {"nodes": sorted(sources)}


def _query_sources_decode(data: Dict[str, Any]) -> Any:
    if "policy" in data:
        return SourceSelection(data["policy"])
    return frozenset(data["nodes"])


register(
    QuerySpec,
    atom("query_id"),
    atom("period"),
    atom("start_time"),
    custom("sources", _query_sources_encode, _query_sources_decode),
    enum_member("aggregation", AggregationFunction),
    atom("deadline"),
    atom("duration"),
)

register(
    RunMetrics,
    atom("protocol"),
    atom("duration"),
    atom("average_duty_cycle"),
    int_keyed("duty_cycle_per_node"),
    int_keyed("duty_cycle_by_rank"),
    atom("average_query_latency"),
    atom("max_query_latency"),
    atom("deliveries"),
    atom("delivery_ratio"),
    int_keyed("energy_per_node"),
    value_list("sleep_intervals"),
    mapping("channel_stats"),
    # The observability counters snapshot arrived with schema v4; v3 store
    # records decode with an empty snapshot instead of failing.
    mapping("counters", since=4, default_factory=dict),
)


# ---------------------------------------------------------------------------
# Compatibility wrappers (the pre-codec public helper names)
# ---------------------------------------------------------------------------

def topology_spec_to_dict(spec: TopologySpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`TopologySpec`."""
    return encode(spec)


def topology_spec_from_dict(data: Dict[str, Any]) -> TopologySpec:
    """Inverse of :func:`topology_spec_to_dict`."""
    return decode(TopologySpec, data)


def propagation_spec_to_dict(spec: PropagationSpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`PropagationSpec`."""
    return encode(spec)


def propagation_spec_from_dict(data: Dict[str, Any]) -> PropagationSpec:
    """Inverse of :func:`propagation_spec_to_dict`."""
    return decode(PropagationSpec, data)


def loss_spec_to_dict(spec: LossSpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`LossSpec`."""
    return encode(spec)


def loss_spec_from_dict(data: Dict[str, Any]) -> LossSpec:
    """Inverse of :func:`loss_spec_to_dict`."""
    return decode(LossSpec, data)


def mobility_spec_to_dict(spec: Optional[MobilitySpec]) -> Optional[Dict[str, Any]]:
    """JSON-safe representation of a :class:`MobilitySpec` (or ``None``)."""
    return None if spec is None else encode(spec)


def mobility_spec_from_dict(data: Optional[Dict[str, Any]]) -> Optional[MobilitySpec]:
    """Inverse of :func:`mobility_spec_to_dict`."""
    return None if data is None else decode(MobilitySpec, data)


def failure_schedule_to_dict(schedule: Optional[FailureSchedule]) -> Optional[Dict[str, Any]]:
    """JSON-safe representation of a :class:`FailureSchedule` (or ``None``)."""
    return None if schedule is None else encode(schedule)


def failure_schedule_from_dict(data: Optional[Dict[str, Any]]) -> Optional[FailureSchedule]:
    """Inverse of :func:`failure_schedule_to_dict`."""
    return None if data is None else decode(FailureSchedule, data)


def scenario_to_dict(scenario: ScenarioConfig) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`ScenarioConfig`."""
    return encode(scenario)


def scenario_from_dict(data: Dict[str, Any]) -> ScenarioConfig:
    """Inverse of :func:`scenario_to_dict`."""
    return decode(ScenarioConfig, data)


def workload_to_dict(workload: WorkloadSpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`WorkloadSpec`."""
    return encode(workload)


def workload_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    """Inverse of :func:`workload_to_dict`."""
    return decode(WorkloadSpec, data)


def query_to_dict(query: QuerySpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`QuerySpec`."""
    return encode(query)


def query_from_dict(data: Dict[str, Any]) -> QuerySpec:
    """Inverse of :func:`query_to_dict`."""
    return decode(QuerySpec, data)


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`RunMetrics`."""
    return encode(metrics)


def metrics_from_dict(data: Dict[str, Any], version: int = SCHEMA_VERSION) -> RunMetrics:
    """Inverse of :func:`metrics_to_dict`.

    Python's ``json`` module serializes floats via ``repr`` and parses them
    back exactly, so a metrics object survives the round trip bit-for-bit --
    the property the warm-store determinism tests assert.  ``version`` is
    the schema version the data was written at; fields introduced later
    (the v4 ``counters`` snapshot) decode to their registered defaults.
    """
    return decode(RunMetrics, data, version)


# ---------------------------------------------------------------------------
# The job itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunJob:
    """One simulation run, fully described and content-addressable.

    Exactly one of ``workload`` (queries are generated with this job's seed,
    matching the paper's per-replication randomized start times) or
    ``queries`` (an explicit fixed query list) is set.
    """

    scenario: ScenarioConfig
    protocol: str
    seed: int
    workload: Optional[WorkloadSpec] = None
    queries: Optional[Tuple[QuerySpec, ...]] = None

    def __post_init__(self) -> None:
        if (self.workload is None) == (self.queries is None):
            raise ValueError("provide exactly one of `workload` or `queries`")
        if self.queries is not None and not isinstance(self.queries, tuple):
            object.__setattr__(self, "queries", tuple(self.queries))

    def resolve_queries(self) -> List[QuerySpec]:
        """The concrete query list this job runs.

        Workload-based jobs regenerate their queries deterministically from
        ``(workload, seed)``, so resolving is cheap and reproducible; fixed
        query lists are returned as-is.
        """
        if self.workload is not None:
            return generate_queries(self.workload, streams=RandomStreams(self.seed))
        return list(self.queries or ())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (the digest is computed over this)."""
        return {"version": SCHEMA_VERSION, **encode(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any], version: Optional[int] = None) -> "RunJob":
        """Inverse of :meth:`to_dict`.

        ``version`` overrides the payload's embedded ``version`` field; the
        store's migration path passes the record version explicitly when
        loading records written at an older version.
        """
        if version is None:
            version = int(data.get("version", SCHEMA_VERSION))
        return decode(cls, data, version)

    @property
    def digest(self) -> str:
        """Stable SHA-256 content digest of this job's parameters."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for logs and progress lines."""
        if self.workload is not None:
            detail = f"rate={self.workload.base_rate_hz:g}Hz x{self.workload.queries_per_class}"
        else:
            detail = f"{len(self.queries or ())} fixed queries"
        return f"{self.protocol} seed={self.seed} {detail}"


register(
    RunJob,
    nested("scenario", ScenarioConfig),
    atom("protocol"),
    atom("seed"),
    optional_nested("workload", WorkloadSpec),
    nested_list("queries", QuerySpec),
)


def expand_experiment(
    scenario: ScenarioConfig,
    protocol: str,
    *,
    workload: Optional[WorkloadSpec] = None,
    queries: Optional[Sequence[QuerySpec]] = None,
    num_runs: Optional[int] = None,
) -> List[RunJob]:
    """One :class:`RunJob` per replication of one experiment.

    Replication ``i`` uses ``scenario.seed + i``, exactly as the serial
    :func:`repro.experiments.runner.run_experiment` loop always has, so the
    orchestrated path reproduces its results bit-for-bit.
    """
    if (workload is None) == (queries is None):
        raise ValueError("provide exactly one of `workload` or `queries`")
    runs = num_runs if num_runs is not None else scenario.num_runs
    if runs <= 0:
        raise ValueError(f"number of runs must be positive, got {runs!r}")
    fixed = None if queries is None else tuple(queries)
    return [
        RunJob(
            scenario=scenario,
            protocol=protocol,
            seed=scenario.seed + replication,
            workload=workload,
            queries=fixed,
        )
        for replication in range(runs)
    ]

"""Run jobs: the unit of work the orchestrator schedules and caches.

A :class:`RunJob` is one simulation run -- a ``(scenario, protocol,
workload-or-queries, seed)`` tuple, i.e. exactly the arguments of
:func:`repro.experiments.runner.run_single` plus the recipe for the queries.
Jobs are immutable, JSON-serializable, and carry a stable content digest:
two jobs with the same parameters hash to the same digest on any machine
and any Python version, which is what makes the on-disk result store
content-addressed and lets interrupted sweeps resume where they left off.

Serialization is derived: :class:`RunJob` and every spec it nests are
dataclasses, and :mod:`repro.orchestrator.codec` derives their wire form
from their fields.  The three helpers below are the conversions the store,
the sweep in :mod:`repro.orchestrator.api` and the benchmark harness call by
name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..experiments.config import ScenarioConfig
from ..experiments.metrics import RunMetrics
from ..query.query import QuerySpec
from ..query.workload import WorkloadSpec, generate_queries
from ..sim.rng import RandomStreams
from .codec import SCHEMA_VERSION, CodecError, decode, encode

__all__ = [
    "RunJob",
    "SCHEMA_VERSION",
    "metrics_from_dict",
    "metrics_to_dict",
    "query_to_dict",
]


def query_to_dict(query: QuerySpec) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`QuerySpec`."""
    return encode(query)


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """JSON-safe representation of a :class:`RunMetrics`."""
    return encode(metrics)


def metrics_from_dict(data: Dict[str, Any]) -> RunMetrics:
    """Inverse of :func:`metrics_to_dict`.

    Python's ``json`` module serializes floats via ``repr`` and parses them
    back exactly, so a metrics object survives the round trip bit-for-bit --
    the property the warm-store determinism tests assert.
    """
    return decode(RunMetrics, data)


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
    def from_dict(cls, data: Dict[str, Any]) -> "RunJob":
        """Inverse of :meth:`to_dict`.

        Raises :class:`~repro.orchestrator.codec.CodecError` if ``data``
        embeds a schema version other than the current one: a job from
        another schema is not decoded into today's fields.
        """
        version = data.get("version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise CodecError(f"job is schema v{version}; this code reads v{SCHEMA_VERSION}")
        return decode(cls, data)

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


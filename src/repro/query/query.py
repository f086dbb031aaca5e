"""Query specifications.

A query (Section 3 of the paper) is characterised by a set of sources, an
aggregation function, the period ``P`` at which sources generate data
reports, and the query start time ``phi``.  STS additionally needs a
deadline ``D`` (defaulting to the period, as in the paper's experiments).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Union

from .aggregation import AggregationFunction


class SourceSelection(enum.Enum):
    """How a query's sources are chosen when no explicit set is given."""

    #: Every leaf of the routing tree is a source (the paper's setup).
    LEAVES = "leaves"
    #: Every node of the routing tree contributes a sample (TAG-style).
    ALL_NODES = "all_nodes"


def _query_sources_encode(sources: Union[FrozenSet[int], SourceSelection]) -> Dict[str, Any]:
    """A query's sources are polymorphic: a policy or explicit node ids."""
    if isinstance(sources, SourceSelection):
        return {"policy": sources.value}
    return {"nodes": sorted(sources)}


def _query_sources_decode(data: Dict[str, Any]) -> Union[FrozenSet[int], SourceSelection]:
    if "policy" in data:
        return SourceSelection(data["policy"])
    return frozenset(data["nodes"])


@dataclass(frozen=True)
class QuerySpec:
    """Immutable description of one periodic aggregation query.

    Attributes
    ----------
    query_id:
        Unique identifier of the query.
    period:
        Period ``P`` in seconds between consecutive data reports.
    start_time:
        Start time ``phi`` of the query: the instant the sources generate
        their first (k = 0) data report.
    sources:
        Either an explicit frozen set of source node ids, or a
        :class:`SourceSelection` policy resolved against the routing tree at
        registration time.
    aggregation:
        In-network aggregation function applied at every interior node.
    deadline:
        End-to-end deadline ``D`` used by STS to derive its local deadline
        ``l = D / M``.  ``None`` means "equal to the period", matching the
        paper's experimental configuration.
    duration:
        Optional query lifetime in seconds; ``None`` runs until the end of
        the simulation.
    """

    query_id: int
    period: float
    start_time: float = 0.0
    #: ``codec``: the wire form of this polymorphic field
    #: (see :mod:`repro.orchestrator.codec`).
    sources: Union[FrozenSet[int], SourceSelection] = field(
        default=SourceSelection.LEAVES,
        metadata={"codec": (_query_sources_encode, _query_sources_decode)},
    )
    aggregation: AggregationFunction = AggregationFunction.AVG
    deadline: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"query period must be positive, got {self.period!r}")
        if self.start_time < 0:
            raise ValueError(f"query start time must be non-negative, got {self.start_time!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"query deadline must be positive, got {self.deadline!r}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"query duration must be positive, got {self.duration!r}")
        if isinstance(self.sources, (set, list, tuple)):
            object.__setattr__(self, "sources", frozenset(self.sources))

    @property
    def rate(self) -> float:
        """Report rate in Hz."""
        return 1.0 / self.period

    @property
    def effective_deadline(self) -> float:
        """The deadline ``D``; defaults to the period when not set explicitly."""
        return self.deadline if self.deadline is not None else self.period

    def report_time(self, k: int) -> float:
        """Nominal generation time of the k-th data report: ``phi + k * P``."""
        if k < 0:
            raise ValueError(f"report index must be non-negative, got {k}")
        return self.start_time + k * self.period

    def report_index_at(self, time: float) -> int:
        """Index of the last report whose nominal generation time is <= ``time``."""
        if time < self.start_time:
            return -1
        return int((time - self.start_time) / self.period)

    def is_active_at(self, time: float) -> bool:
        """Whether the query is generating reports at ``time``."""
        if time < self.start_time:
            return False
        if self.duration is None:
            return True
        return time <= self.start_time + self.duration

    def with_deadline(self, deadline: float) -> "QuerySpec":
        """Return a copy with a different deadline (used by the Fig. 2 sweep)."""
        return QuerySpec(
            query_id=self.query_id,
            period=self.period,
            start_time=self.start_time,
            sources=self.sources,
            aggregation=self.aggregation,
            deadline=deadline,
            duration=self.duration,
        )

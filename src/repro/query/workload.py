"""Workload generation matching the paper's experimental setup.

Section 5: three query classes with rate ratio ``Q1 : Q2 : Q3 = 6 : 3 : 2``.
``Q1``'s rate is the *base rate*.  Workloads are varied either by sweeping
the base rate with one query per class, or by fixing the base rate (0.2 Hz)
and increasing the number of queries per class.  Each query starts at a
random time in ``[0, 10] s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..sim.rng import RandomStreams
from .aggregation import AggregationFunction
from .query import QuerySpec, SourceSelection

#: The paper's rate ratio between the three query classes.
DEFAULT_CLASS_RATE_RATIO: Tuple[float, float, float] = (6.0, 3.0, 2.0)

#: Queries start at a uniformly random time in this window (seconds).
DEFAULT_START_WINDOW: Tuple[float, float] = (0.0, 10.0)


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of a multi-class periodic query workload."""

    base_rate_hz: float
    queries_per_class: int = 1
    class_rate_ratio: Tuple[float, ...] = DEFAULT_CLASS_RATE_RATIO
    start_window: Tuple[float, float] = DEFAULT_START_WINDOW
    aggregation: AggregationFunction = AggregationFunction.AVG
    sources: SourceSelection = SourceSelection.LEAVES
    #: Deadline assigned to every query; ``None`` means "equal to the period"
    #: (the paper sets STS-SS's deadline equal to the period).
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_rate_hz <= 0:
            raise ValueError(f"base rate must be positive, got {self.base_rate_hz!r}")
        if self.queries_per_class <= 0:
            raise ValueError(f"queries per class must be positive, got {self.queries_per_class!r}")
        if not self.class_rate_ratio:
            raise ValueError("class rate ratio must not be empty")
        if any(ratio <= 0 for ratio in self.class_rate_ratio):
            raise ValueError("class rate ratios must all be positive")
        low, high = self.start_window
        if low < 0 or high < low:
            raise ValueError(f"invalid start window {self.start_window!r}")

    @property
    def num_classes(self) -> int:
        """Number of query classes in the workload."""
        return len(self.class_rate_ratio)

    @property
    def total_queries(self) -> int:
        """Total number of queries generated by :func:`generate_queries`."""
        return self.num_classes * self.queries_per_class

    def class_rate(self, class_index: int) -> float:
        """Rate in Hz of queries in class ``class_index`` (0-based)."""
        base_ratio = self.class_rate_ratio[0]
        return self.base_rate_hz * self.class_rate_ratio[class_index] / base_ratio

    def class_period(self, class_index: int) -> float:
        """Period in seconds of queries in class ``class_index``."""
        return 1.0 / self.class_rate(class_index)


def generate_queries(
    spec: WorkloadSpec,
    streams: Optional[RandomStreams] = None,
    seed: int = 0,
) -> List[QuerySpec]:
    """Instantiate the queries of ``spec`` with randomized start times.

    Query ids are assigned sequentially starting from 1;
    class ``c``'s queries come before class ``c + 1``'s.
    """
    rng = (streams or RandomStreams(seed)).get("workload.start_times")
    low, high = spec.start_window
    queries: List[QuerySpec] = []
    query_id = 1
    for class_index in range(spec.num_classes):
        period = spec.class_period(class_index)
        for _ in range(spec.queries_per_class):
            start_time = rng.uniform(low, high)
            queries.append(
                QuerySpec(
                    query_id=query_id,
                    period=period,
                    start_time=start_time,
                    sources=spec.sources,
                    aggregation=spec.aggregation,
                    deadline=spec.deadline,
                )
            )
            query_id += 1
    return queries


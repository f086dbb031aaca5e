"""Metrics collected from a simulation run.

The paper evaluates the protocols along two primary metrics plus one
diagnostic one:

* **average node duty cycle** -- the percentage of time a node remains
  active (Figures 2, 3, 4, 9), also broken down by node rank (Figure 5),
* **query latency** -- the time from a data report's nominal generation
  instant (``phi + k * P``) to the delivery of the aggregated report at the
  root, averaged over all delivered periods (Figures 2, 6, 7),
* the **sleep-interval histogram** (Figure 8) and the fraction of sleep
  intervals shorter than a break-even time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..net.node import Network
from ..query.query import QuerySpec
from ..query.report import DataReport
from ..radio.duty_cycle import fraction_shorter_than, histogram_sleep_intervals
from ..routing.tree import RoutingTree


@dataclass
class DeliveryRecord:
    """One aggregated report delivered at the root."""

    query_id: int
    report_index: int
    completed_at: float
    nominal_time: float
    contributing_sources: int

    @property
    def latency(self) -> float:
        """Delivery latency relative to the nominal generation instant."""
        return self.completed_at - self.nominal_time


class DeliveryLog:
    """Collects root deliveries during a run (the ``on_root_delivery`` hook)."""

    def __init__(self) -> None:
        self.records: List[DeliveryRecord] = []

    def __call__(self, query_id: int, report_index: int, report: DataReport, completed_at: float) -> None:
        self.records.append(
            DeliveryRecord(
                query_id=query_id,
                report_index=report_index,
                completed_at=completed_at,
                nominal_time=report.nominal_time,
                contributing_sources=report.contributing_sources,
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def latencies(self, since: float = 0.0) -> List[float]:
        """Latencies of deliveries completed at or after ``since``."""
        return [r.latency for r in self.records if r.completed_at >= since]


@dataclass
class RunMetrics:
    """All metrics extracted from one simulation run."""

    protocol: str
    duration: float
    #: Average duty cycle over the measured nodes, in [0, 1]: every node of
    #: the routing tree as assembled, less the planned failure victims.
    average_duty_cycle: float
    #: Duty cycle per node id.
    duty_cycle_per_node: Dict[int, float]
    #: Mean duty cycle of the measured nodes grouped by assembled rank.
    duty_cycle_by_rank: Dict[int, float]
    #: Mean query latency over every delivered period, in seconds.
    average_query_latency: float
    #: Maximum observed query latency.
    max_query_latency: float
    #: Number of aggregated reports delivered at the root.
    deliveries: int
    #: Fraction of (query, period) instances that produced a root delivery.
    delivery_ratio: float
    #: Energy consumed per node, in joules.
    energy_per_node: Dict[int, float]
    #: All completed sleep-interval lengths across the measured nodes.
    sleep_intervals: List[float] = field(default_factory=list)
    #: MAC/channel counters useful for overhead analysis.
    channel_stats: Dict[str, int] = field(default_factory=dict)
    #: Flat observability snapshot of the run (engine event totals, peak
    #: heap size, network/protocol counter sums, wall-clock cost), produced
    #: by :func:`repro.obs.adapters.collect_run_counters`.  Empty for
    #: metrics built without a live simulation (e.g. hand-rolled tests).
    #: ``compare=False``: equality of two RunMetrics means "same simulation
    #: outcome", and the snapshot includes wall-clock gauges that legitimately
    #: differ between bit-identical runs (serial vs parallel, warm store).
    counters: Dict[str, float] = field(default_factory=dict, compare=False)

    def sleep_interval_histogram(
        self, bin_width: float = 0.025, max_value: Optional[float] = None
    ) -> List[Tuple[float, int]]:
        """Histogram of sleep-interval lengths (Figure 8 presentation).

        ``max_value`` clamps longer intervals into the last bucket, which
        keeps the table readable when a few idle nodes sleep for seconds.
        """
        return histogram_sleep_intervals(
            self.sleep_intervals, bin_width=bin_width, max_value=max_value
        )

    def fraction_sleeps_shorter_than(self, threshold: float) -> float:
        """Fraction of sleep intervals shorter than ``threshold`` seconds."""
        return fraction_shorter_than(self.sleep_intervals, threshold)

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a flat dict (for tables and logging)."""
        return {
            "average_duty_cycle": self.average_duty_cycle,
            "average_query_latency": self.average_query_latency,
            "max_query_latency": self.max_query_latency,
            "deliveries": float(self.deliveries),
            "delivery_ratio": self.delivery_ratio,
        }


def expected_periods(query: QuerySpec, duration: float, margin: float = 0.0) -> int:
    """Number of query periods whose nominal time falls inside the run.

    ``margin`` trims periods too close to the end of the run to have been
    deliverable (used for the delivery-ratio denominator).
    """
    horizon = duration - margin
    if horizon < query.start_time:
        return 0
    return int((horizon - query.start_time) / query.period) + 1


def collect_metrics(
    protocol: str,
    network: Network,
    tree: RoutingTree,
    deliveries: DeliveryLog,
    queries: Sequence[QuerySpec],
    duration: float,
    *,
    measure_from: float = 0.0,
    delivery_margin: Optional[float] = None,
    counters: Optional[Dict[str, float]] = None,
    ranks: Optional[Mapping[int, int]] = None,
) -> RunMetrics:
    """Compute the paper's metrics from a finished simulation run.

    ``ranks`` maps each measured node to its rank.  The runner passes the
    tree as assembled, less the planned failure victims, so that a
    protocol that repairs its tree and one that does not average over the
    same nodes; the default is every node of ``tree`` at its current rank.
    Nodes are summed in id order.

    ``delivery_margin`` defaults to one period of the slowest query: periods
    generated within that margin of the end of the run are not counted
    against the delivery ratio.  ``counters`` is an optional observability
    snapshot (see :func:`repro.obs.adapters.collect_run_counters`) attached
    verbatim.
    """
    if ranks is None:
        ranks = {node_id: tree.rank(node_id) for node_id in tree.nodes}
    duty_per_node: Dict[int, float] = {}
    energy_per_node: Dict[int, float] = {}
    sleep_intervals: List[float] = []
    duty_by_rank: Dict[int, List[float]] = {}
    for node_id in sorted(ranks):
        tracker = network.node(node_id).radio.tracker
        duty = duty_per_node[node_id] = tracker.duty_cycle()
        energy_per_node[node_id] = tracker.energy_consumed()
        sleep_intervals.extend(tracker.sleep_intervals)
        duty_by_rank.setdefault(ranks[node_id], []).append(duty)
    duty_by_rank_mean = {
        rank: sum(values) / len(values) for rank, values in sorted(duty_by_rank.items())
    }

    latencies = deliveries.latencies(since=measure_from)
    average_latency = sum(latencies) / len(latencies) if latencies else 0.0
    max_latency = max(latencies) if latencies else 0.0

    if delivery_margin is None:
        delivery_margin = max((q.period for q in queries), default=0.0)
    expected_by_query = {
        q.query_id: expected_periods(q, duration, margin=delivery_margin) for q in queries
    }
    total_expected = sum(expected_by_query.values())
    delivered = len(deliveries.records)
    # A (query, period) instance counts at most once, no matter how many
    # times the root saw it delivered: duplicates must not inflate the ratio.
    # Periods past the margin-trimmed horizon are excluded from the numerator
    # exactly as they are from the denominator, so the ratio is in [0, 1]
    # by construction rather than by clamping.
    distinct_instances = {(r.query_id, r.report_index) for r in deliveries.records}
    countable = sum(
        1
        for query_id, report_index in distinct_instances
        if report_index < expected_by_query.get(query_id, 0)
    )
    delivery_ratio = countable / total_expected if total_expected else 0.0

    average_duty = (
        sum(duty_per_node.values()) / len(duty_per_node) if duty_per_node else 0.0
    )

    return RunMetrics(
        protocol=protocol,
        duration=duration,
        average_duty_cycle=average_duty,
        duty_cycle_per_node=duty_per_node,
        duty_cycle_by_rank=duty_by_rank_mean,
        average_query_latency=average_latency,
        max_query_latency=max_latency,
        deliveries=delivered,
        delivery_ratio=delivery_ratio,
        energy_per_node=energy_per_node,
        sleep_intervals=sleep_intervals,
        channel_stats=network.channel.stats.as_dict(),
        counters=dict(counters) if counters else {},
    )


def average_metrics(runs: Sequence[RunMetrics]) -> RunMetrics:
    """Average the scalar metrics of several replications of the same setup.

    Per-node and per-rank breakdowns are averaged key-wise over the runs in
    which the key appears; sleep intervals are concatenated.
    """
    if not runs:
        raise ValueError("cannot average an empty list of runs")
    if len(runs) == 1:
        return runs[0]

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    def merge_dicts(dicts: Sequence[Dict[int, float]]) -> Dict[int, float]:
        keys = {key for d in dicts for key in d}
        return {
            key: mean([d[key] for d in dicts if key in d]) for key in sorted(keys)
        }

    merged_sleep: List[float] = []
    for run in runs:
        merged_sleep.extend(run.sleep_intervals)

    merged_channel: Dict[str, int] = {}
    for run in runs:
        for key, value in run.channel_stats.items():
            merged_channel[key] = merged_channel.get(key, 0) + value

    # Observability counters average key-wise (unlike channel_stats, which
    # historically sums): the result describes a *typical* replication, so
    # gauges like peak heap size or wall-seconds must not scale with the
    # replication count.
    counter_keys = {key for run in runs for key in run.counters}
    merged_counters = {
        key: mean([run.counters[key] for run in runs if key in run.counters])
        for key in sorted(counter_keys)
    }

    return RunMetrics(
        protocol=runs[0].protocol,
        duration=mean([run.duration for run in runs]),
        average_duty_cycle=mean([run.average_duty_cycle for run in runs]),
        duty_cycle_per_node=merge_dicts([run.duty_cycle_per_node for run in runs]),
        duty_cycle_by_rank=merge_dicts([run.duty_cycle_by_rank for run in runs]),
        average_query_latency=mean([run.average_query_latency for run in runs]),
        max_query_latency=max(run.max_query_latency for run in runs),
        deliveries=int(round(mean([run.deliveries for run in runs]))),
        delivery_ratio=mean([run.delivery_ratio for run in runs]),
        energy_per_node=merge_dicts([run.energy_per_node for run in runs]),
        sleep_intervals=merged_sleep,
        channel_stats=merged_channel,
        counters=merged_counters,
    )

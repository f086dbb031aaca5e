"""Per-figure reproduction entry points.

Every figure in the paper's evaluation (Figures 2-9) has a function here
that runs the corresponding sweep and returns a
:class:`~repro.experiments.tables.FigureResult` holding the same series the
paper plots.  Called without a scenario or a sweep grid, a function runs
the reduced entry of :data:`~repro.experiments.scenarios.SCALES`; the
benchmark suite calls them that way and asserts the qualitative shape.
``repro --scale paper figure figN`` passes the paper entry's scenario and
grid, which reproduces the paper's sweep.

Sweep execution routes through :mod:`repro.orchestrator`: every data point
of a figure (one protocol at one x-value, replicated ``num_runs`` times)
expands into content-addressed :class:`~repro.orchestrator.jobs.RunJob`
objects, and :func:`~repro.orchestrator.api.run_sweep` executes the whole
figure's job list as ONE sweep.  Two knobs every figure function accepts:

* ``jobs=N`` fans the sweep out over ``N`` worker processes.  Results are
  bit-identical to the serial path because each job owns its own seeded
  random universe.
* ``store=<dir>`` memoises finished runs by job digest in ``<dir>``.  A
  warm store replays a figure without touching the simulator, and an
  interrupted full-scale sweep resumes from the completed points on the
  next invocation with the same store.

The same knobs are exposed on the CLI as ``--jobs`` / ``--cache-dir``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..orchestrator.api import ExperimentSpec, ProgressLike, StoreLike, run_sweep
from .config import ScenarioConfig
from .scenarios import (
    BREAK_EVEN_TIMES,
    DUTY_CYCLE_PROTOCOLS,
    ESSAT_ONLY,
    LATENCY_PROTOCOLS,
    REDUCED,
    deadline_sweep_workload,
    query_count_workload,
    rate_sweep_workload,
)
from .tables import FigureResult, Series

#: Break-even threshold (seconds) used for the Figure 8 commentary: the
#: typical MICA2 / WLAN wake-up delay.
MICA2_BREAK_EVEN = 0.0025


def _percent(value: float) -> float:
    return 100.0 * value


def figure2_deadline_sweep(
    scenario: Optional[ScenarioConfig] = None,
    deadlines: Sequence[float] = REDUCED.deadlines,
    base_rate_hz: float = 5.0,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 2: STS-SS duty cycle and query latency vs the query deadline."""
    scenario = scenario or REDUCED.scenario()
    duty = Series(name="duty_cycle_pct", x=[], y=[])
    latency = Series(name="query_latency_s", x=[], y=[])
    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol="STS-SS",
            workload=deadline_sweep_workload(deadline, base_rate_hz=base_rate_hz),
            num_runs=num_runs,
        )
        for deadline in deadlines
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label="fig2")
    for deadline, result in zip(deadlines, results, strict=True):
        duty.x.append(deadline)
        duty.y.append(_percent(result.metrics.average_duty_cycle))
        latency.x.append(deadline)
        latency.y.append(result.metrics.average_query_latency)
    figure = FigureResult(
        figure_id="Figure 2",
        title="Impact of query deadline on duty cycle and query latency of STS-SS",
        x_label="deadline_s",
        y_label="duty cycle (%) / query latency (s)",
        series=[duty, latency],
    )
    # Locate the knee: the deadline past which latency keeps growing while
    # the duty cycle has stopped improving appreciably.
    best_duty = min(duty.y)
    for x, y in zip(duty.x, duty.y, strict=True):
        if y <= best_duty * 1.1:
            figure.notes["knee_deadline_s"] = x
            break
    return figure


def _protocol_sweep(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    protocols: Sequence[str],
    x_values: Sequence[float],
    workload_for_x,
    metric_of,
    scenario: ScenarioConfig,
    num_runs: Optional[int],
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Shared sweep driver for the rate / query-count comparison figures.

    The whole (protocol x x-value) grid is flattened into one orchestrator
    sweep, so ``jobs=N`` overlaps simulation runs across the entire figure
    rather than within one data point.
    """
    figure = FigureResult(
        figure_id=figure_id, title=title, x_label=x_label, y_label=y_label
    )
    grid = [(protocol, x) for protocol in protocols for x in x_values]
    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol=protocol,
            workload=workload_for_x(x),
            num_runs=num_runs,
        )
        for protocol, x in grid
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label=figure_id)
    by_protocol: Dict[str, Series] = {}
    for (protocol, x), result in zip(grid, results, strict=True):
        series = by_protocol.get(protocol)
        if series is None:
            series = Series(name=protocol, x=[], y=[])
            by_protocol[protocol] = series
            figure.series.append(series)
        series.x.append(float(x))
        series.y.append(metric_of(result.metrics))
    return figure


def figure3_duty_cycle_vs_rate(
    scenario: Optional[ScenarioConfig] = None,
    rates: Sequence[float] = REDUCED.rates,
    protocols: Sequence[str] = DUTY_CYCLE_PROTOCOLS,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 3: average duty cycle vs base rate, three query classes."""
    scenario = scenario or REDUCED.scenario()
    return _protocol_sweep(
        "Figure 3",
        "Average duty cycle for three query classes when varying base rate",
        "base_rate_hz",
        "duty cycle (%)",
        protocols,
        rates,
        rate_sweep_workload,
        lambda metrics: _percent(metrics.average_duty_cycle),
        scenario,
        num_runs,
        jobs=jobs,
        store=store,
        progress=progress,
    )


def figure4_duty_cycle_vs_queries(
    scenario: Optional[ScenarioConfig] = None,
    counts: Sequence[int] = REDUCED.counts,
    protocols: Sequence[str] = DUTY_CYCLE_PROTOCOLS,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 4: average duty cycle vs number of queries per class (0.2 Hz)."""
    scenario = scenario or REDUCED.scenario()
    return _protocol_sweep(
        "Figure 4",
        "Average duty cycle for three query classes when varying number of queries per class",
        "queries_per_class",
        "duty cycle (%)",
        protocols,
        counts,
        lambda count: query_count_workload(int(count)),
        lambda metrics: _percent(metrics.average_duty_cycle),
        scenario,
        num_runs,
        jobs=jobs,
        store=store,
        progress=progress,
    )


def figure5_duty_cycle_by_rank(
    scenario: Optional[ScenarioConfig] = None,
    base_rate_hz: float = 5.0,
    protocols: Sequence[str] = ESSAT_ONLY,
    num_runs: int = 1,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 5: distribution of duty cycles over node ranks (one typical run)."""
    scenario = scenario or REDUCED.scenario()
    figure = FigureResult(
        figure_id="Figure 5",
        title="Distribution of duty cycles at different ranks",
        x_label="rank",
        y_label="duty cycle (%)",
    )
    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol=protocol,
            workload=rate_sweep_workload(base_rate_hz),
            num_runs=num_runs,
        )
        for protocol in protocols
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label="Figure 5")
    for protocol, result in zip(protocols, results, strict=True):
        by_rank = result.metrics.duty_cycle_by_rank
        figure.series.append(
            Series(
                name=protocol,
                x=[float(rank) for rank in sorted(by_rank)],
                y=[_percent(by_rank[rank]) for rank in sorted(by_rank)],
            )
        )
    return figure


def figure6_latency_vs_rate(
    scenario: Optional[ScenarioConfig] = None,
    rates: Sequence[float] = REDUCED.rates,
    protocols: Sequence[str] = LATENCY_PROTOCOLS,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 6: average query latency vs base rate (log-scale in the paper)."""
    scenario = scenario or REDUCED.scenario()
    return _protocol_sweep(
        "Figure 6",
        "Query latency for three query classes when varying base rate",
        "base_rate_hz",
        "query latency (s)",
        protocols,
        rates,
        rate_sweep_workload,
        lambda metrics: metrics.average_query_latency,
        scenario,
        num_runs,
        jobs=jobs,
        store=store,
        progress=progress,
    )


def figure7_latency_vs_queries(
    scenario: Optional[ScenarioConfig] = None,
    counts: Sequence[int] = REDUCED.counts,
    protocols: Sequence[str] = LATENCY_PROTOCOLS,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 7: average query latency vs number of queries per class (0.2 Hz)."""
    scenario = scenario or REDUCED.scenario()
    return _protocol_sweep(
        "Figure 7",
        "Query latency for three query classes when varying the number of queries per class",
        "queries_per_class",
        "query latency (s)",
        protocols,
        counts,
        lambda count: query_count_workload(int(count)),
        lambda metrics: metrics.average_query_latency,
        scenario,
        num_runs,
        jobs=jobs,
        store=store,
        progress=progress,
    )


def figure8_sleep_interval_histogram(
    scenario: Optional[ScenarioConfig] = None,
    base_rate_hz: float = 5.0,
    protocols: Sequence[str] = ESSAT_ONLY,
    bin_width: float = 0.025,
    max_interval: float = 0.5,
    num_runs: int = 1,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 8: histogram of sleep-interval lengths with T_BE = 0.

    Intervals longer than ``max_interval`` (pre-query idling and similar) are
    clamped into the last bucket so the table focuses on the 0-0.2 s region
    the paper plots.
    """
    scenario = (scenario or REDUCED.scenario()).with_overrides(break_even_time=0.0)
    figure = FigureResult(
        figure_id="Figure 8",
        title="Histogram of sleep intervals (T_BE = 0)",
        x_label="sleep_interval_upper_edge_s",
        y_label="count",
    )
    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol=protocol,
            workload=rate_sweep_workload(base_rate_hz),
            num_runs=num_runs,
        )
        for protocol in protocols
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label="Figure 8")
    for protocol, result in zip(protocols, results, strict=True):
        histogram = result.metrics.sleep_interval_histogram(
            bin_width=bin_width, max_value=max_interval
        )
        figure.series.append(
            Series(
                name=protocol,
                x=[edge for edge, _ in histogram],
                y=[float(count) for _, count in histogram],
            )
        )
        figure.notes[f"{protocol}_fraction_below_2.5ms"] = (
            result.metrics.fraction_sleeps_shorter_than(MICA2_BREAK_EVEN)
        )
    return figure


def figure9_break_even_time(
    scenario: Optional[ScenarioConfig] = None,
    rates: Sequence[float] = REDUCED.rates,
    break_even_times: Sequence[float] = BREAK_EVEN_TIMES,
    protocol: str = "DTS-SS",
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Figure 9: duty cycle vs base rate for several break-even times.

    The paper's text sweeps T_BE for DTS-SS (the protocol most sensitive to
    short sleep intervals); the figure caption mentions STS-SS -- we follow
    the text and make the protocol a parameter.
    """
    scenario = scenario or REDUCED.scenario()
    figure = FigureResult(
        figure_id="Figure 9",
        title=f"Impact of break-even time on {protocol} duty cycle",
        x_label="base_rate_hz",
        y_label="duty cycle (%)",
    )
    grid = [(t_be, rate) for t_be in break_even_times for rate in rates]
    specs = [
        ExperimentSpec(
            scenario=scenario.with_overrides(break_even_time=t_be),
            protocol=protocol,
            workload=rate_sweep_workload(rate),
            num_runs=num_runs,
        )
        for t_be, rate in grid
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label="Figure 9")
    by_tbe: Dict[float, Series] = {}
    for (t_be, rate), result in zip(grid, results, strict=True):
        series = by_tbe.get(t_be)
        if series is None:
            series = Series(name=f"TBE={t_be * 1e3:g}ms", x=[], y=[])
            by_tbe[t_be] = series
            figure.series.append(series)
        series.x.append(rate)
        series.y.append(_percent(result.metrics.average_duty_cycle))
    return figure


def dts_overhead_vs_rate(
    scenario: Optional[ScenarioConfig] = None,
    rates: Sequence[float] = REDUCED.rates,
    num_runs: Optional[int] = None,
    jobs: int = 1,
    store: StoreLike = None,
    progress: ProgressLike = None,
) -> FigureResult:
    """Section 4.2.3: DTS phase-update overhead (bits per data report) vs rate."""
    scenario = scenario or REDUCED.scenario()
    series = Series(name="DTS-SS", x=[], y=[])
    specs = [
        ExperimentSpec(
            scenario=scenario,
            protocol="DTS-SS",
            workload=rate_sweep_workload(rate),
            num_runs=num_runs,
        )
        for rate in rates
    ]
    results = run_sweep(specs, jobs=jobs, store=store, progress=progress, label="overhead")
    for rate, result in zip(rates, results, strict=True):
        series.x.append(rate)
        series.y.append(result.extras.get("overhead_bits_per_report", 0.0))
    return FigureResult(
        figure_id="Section 4.2.3",
        title="DTS piggybacked phase-update overhead per data report",
        x_label="base_rate_hz",
        y_label="overhead (bits/report)",
        series=[series],
    )


def headline_claims(
    figure3: FigureResult, figure6: FigureResult
) -> Dict[str, float]:
    """The abstract's headline numbers, recomputed from Figures 3 and 6.

    The paper states that DTS-SS achieves an average node duty cycle
    38-87 % lower than SPAN and query latencies 36-98 % lower than PSM and
    SYNC; this helper derives the equivalent reduction ranges from the
    reproduced series.
    """
    def reductions(figure: FigureResult, target: str, reference: str) -> list[float]:
        target_series = figure.get(target)
        reference_series = figure.get(reference)
        values = []
        for x in figure.x_values():
            target_value = target_series.value_at(x)
            reference_value = reference_series.value_at(x)
            if target_value is None or reference_value is None or reference_value <= 0:
                continue
            values.append(100.0 * (1.0 - target_value / reference_value))
        return values

    duty_vs_span = reductions(figure3, "DTS-SS", "SPAN")
    latency_vs_psm = reductions(figure6, "DTS-SS", "PSM")
    latency_vs_sync = reductions(figure6, "DTS-SS", "SYNC")
    claims: Dict[str, float] = {}
    if duty_vs_span:
        claims["duty_cycle_reduction_vs_span_min_pct"] = min(duty_vs_span)
        claims["duty_cycle_reduction_vs_span_max_pct"] = max(duty_vs_span)
    if latency_vs_psm:
        claims["latency_reduction_vs_psm_min_pct"] = min(latency_vs_psm)
        claims["latency_reduction_vs_psm_max_pct"] = max(latency_vs_psm)
    if latency_vs_sync:
        claims["latency_reduction_vs_sync_min_pct"] = min(latency_vs_sync)
        claims["latency_reduction_vs_sync_max_pct"] = max(latency_vs_sync)
    return claims

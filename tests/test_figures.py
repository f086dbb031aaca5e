"""Functional tests of the per-figure reproduction entry points.

These run at smoke scale with trimmed sweeps so they stay fast; the full
qualitative-shape assertions (protocol orderings across the whole sweep)
live in the benchmark suite, which runs at reduced/paper scale.
"""

from __future__ import annotations

from repro.experiments.config import smoke_scale
from repro.experiments.figures import (
    dts_overhead_vs_rate,
    figure2_deadline_sweep,
    figure3_duty_cycle_vs_rate,
    figure5_duty_cycle_by_rank,
    figure6_latency_vs_rate,
    figure8_sleep_interval_histogram,
    figure9_break_even_time,
    headline_claims,
)

SCENARIO = smoke_scale()


class TestFigureFunctions:
    def test_figure2_returns_duty_and_latency_series(self) -> None:
        figure = figure2_deadline_sweep(
            SCENARIO, deadlines=[0.1, 0.6], base_rate_hz=2.0, num_runs=1
        )
        assert figure.series_names() == ["duty_cycle_pct", "latency_s"] or figure.series_names() == [
            "duty_cycle_pct",
            "query_latency_s",
        ]
        duty = figure.get("duty_cycle_pct")
        latency = figure.get("query_latency_s")
        assert len(duty.x) == 2
        # A larger deadline cannot make STS-SS faster.
        assert latency.value_at(0.6) >= latency.value_at(0.1) - 1e-6
        assert "knee_deadline_s" in figure.notes
        assert "Figure 2" in figure.to_table()

    def test_figure3_orders_protocols_by_duty_cycle(self) -> None:
        figure = figure3_duty_cycle_vs_rate(
            SCENARIO, rates=[1.0], protocols=("DTS-SS", "SPAN"), num_runs=1
        )
        dts = figure.get("DTS-SS").value_at(1.0)
        span = figure.get("SPAN").value_at(1.0)
        assert dts is not None and span is not None
        assert dts < span

    def test_figure5_reports_per_rank_series(self) -> None:
        figure = figure5_duty_cycle_by_rank(
            SCENARIO, base_rate_hz=2.0, protocols=("NTS-SS",), num_runs=1
        )
        series = figure.get("NTS-SS")
        assert len(series.x) >= 2
        assert series.x == sorted(series.x)
        assert all(0.0 <= y <= 100.0 for y in series.y)

    def test_figure6_latency_series(self) -> None:
        figure = figure6_latency_vs_rate(
            SCENARIO, rates=[1.0], protocols=("DTS-SS", "PSM"), num_runs=1
        )
        assert figure.get("PSM").value_at(1.0) > figure.get("DTS-SS").value_at(1.0)

    def test_figure8_histogram_and_fraction_notes(self) -> None:
        figure = figure8_sleep_interval_histogram(
            SCENARIO, base_rate_hz=2.0, protocols=("DTS-SS",), num_runs=1
        )
        series = figure.get("DTS-SS")
        assert sum(series.y) > 0
        assert "DTS-SS_fraction_below_2.5ms" in figure.notes
        assert 0.0 <= figure.notes["DTS-SS_fraction_below_2.5ms"] <= 1.0

    def test_figure9_break_even_time_increases_duty_cycle(self) -> None:
        figure = figure9_break_even_time(
            SCENARIO, rates=[2.0], break_even_times=(0.0, 0.04), num_runs=1
        )
        ideal = figure.get("TBE=0ms").value_at(2.0)
        slow = figure.get("TBE=40ms").value_at(2.0)
        assert slow > ideal

    def test_dts_overhead_is_small(self) -> None:
        figure = dts_overhead_vs_rate(SCENARIO, rates=[1.0], num_runs=1)
        overhead = figure.get("DTS-SS").value_at(1.0)
        assert 0.0 <= overhead < 32.0

    def test_headline_claims_computation(self) -> None:
        figure3 = figure3_duty_cycle_vs_rate(
            SCENARIO, rates=[1.0], protocols=("DTS-SS", "SPAN"), num_runs=1
        )
        figure6 = figure6_latency_vs_rate(
            SCENARIO, rates=[1.0], protocols=("DTS-SS", "PSM", "SYNC"), num_runs=1
        )
        claims = headline_claims(figure3, figure6)
        assert claims["duty_cycle_reduction_vs_span_min_pct"] > 0
        assert claims["latency_reduction_vs_psm_min_pct"] > 0
        assert claims["latency_reduction_vs_sync_min_pct"] > 0

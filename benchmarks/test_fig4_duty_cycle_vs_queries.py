"""Figure 4: average duty cycle vs number of queries per class (base rate 0.2 Hz).

Paper result: the ESSAT protocols again sit below PSM and far below SPAN for
every aggregate workload size, and their duty cycles grow gracefully as more
queries are registered; DTS adapts to the aggregate workload without tuning.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure4_duty_cycle_vs_queries


def test_fig4_duty_cycle_vs_queries(scale) -> None:
    figure = figure4_duty_cycle_vs_queries(scale.scenario(), counts=scale.counts)
    print_figure(figure)

    counts = figure.x_values()
    low, high = min(counts), max(counts)
    for count in counts:
        span = figure.get("SPAN").value_at(count)
        psm = figure.get("PSM").value_at(count)
        for essat in ("DTS-SS", "STS-SS", "NTS-SS"):
            value = figure.get(essat).value_at(count)
            assert value < span
            assert value < psm
    # More registered queries means more work, hence a higher ESSAT duty cycle.
    for essat in ("DTS-SS", "STS-SS", "NTS-SS"):
        series = figure.get(essat)
        assert series.value_at(high) > series.value_at(low)

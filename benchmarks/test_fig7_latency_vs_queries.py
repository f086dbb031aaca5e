"""Figure 7: average query latency vs number of queries per class (0.2 Hz).

Paper result: with the base rate fixed, STS-SS's latency stays constant
(its pacing depends only on the deadline, which equals the period), while
PSM and SYNC remain an order of magnitude slower than every ESSAT protocol
regardless of how many queries are registered.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure7_latency_vs_queries


def test_fig7_latency_vs_queries(scale) -> None:
    figure = figure7_latency_vs_queries(scale.scenario(), counts=scale.counts)
    print_figure(figure)

    counts = figure.x_values()
    for count in counts:
        dts = figure.get("DTS-SS").value_at(count)
        sts = figure.get("STS-SS").value_at(count)
        nts = figure.get("NTS-SS").value_at(count)
        psm = figure.get("PSM").value_at(count)
        sync = figure.get("SYNC").value_at(count)
        assert psm > dts and psm > nts
        assert sync > dts and sync > nts
        # DTS-SS stays far below STS-SS here: the 5-15 s deadlines (equal to
        # the query periods at the 0.2 Hz base rate) make STS pace reports
        # over seconds, while DTS adapts to the actual multi-hop delay.
        assert dts < sts

    # STS-SS's latency is set by the (fixed) period, so it stays roughly
    # constant across the sweep.
    sts_series = figure.get("STS-SS")
    sts_values = [sts_series.value_at(count) for count in counts]
    assert max(sts_values) < 2.0 * min(sts_values)

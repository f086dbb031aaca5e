"""Figure 6: average query latency vs base rate (log scale in the paper).

Paper result: NTS-SS and SPAN have the lowest latencies (greedy forwarding /
always-on backbone); all ESSAT protocols are well below SYNC and PSM, whose
latencies are dominated by buffering for their schedule-agnostic sleep
windows; DTS-SS's latency is 36-98 % lower than PSM's and SYNC's.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure6_latency_vs_rate


def test_fig6_latency_vs_rate(scale, store_use) -> None:
    figure = figure6_latency_vs_rate(
        scale.scenario(),
        rates=scale.rates,
        store=store_use.store,
        progress=store_use,
    )
    print_figure(figure)
    store_use.assert_stored_jobs_replayed()

    for rate in figure.x_values():
        nts = figure.get("NTS-SS").value_at(rate)
        dts = figure.get("DTS-SS").value_at(rate)
        sts = figure.get("STS-SS").value_at(rate)
        span = figure.get("SPAN").value_at(rate)
        psm = figure.get("PSM").value_at(rate)
        sync = figure.get("SYNC").value_at(rate)

        # The schedule-agnostic baselines pay an order-of-magnitude latency
        # penalty compared to NTS-SS and DTS-SS.  (STS-SS is excluded from
        # this comparison: with its deadline set equal to each query's
        # period, its latency is period-bound by construction.)
        assert psm > dts and psm > nts
        assert sync > dts and sync > nts
        # Greedy forwarding and the always-on backbone are the fastest.
        assert nts <= sts + 1e-6
        assert span < psm and span < sync
        # The paper's headline: DTS-SS latency at least 36 % below PSM/SYNC.
        assert dts < 0.64 * psm
        assert dts < 0.64 * sync

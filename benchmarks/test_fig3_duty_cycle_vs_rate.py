"""Figure 3: average duty cycle vs base rate for three query classes.

Paper result: SPAN has the highest duty cycle (always-on backbone), PSM is
next (ATIM-window overhead every beacon), and all three ESSAT protocols sit
below PSM, with NTS-SS the worst of the three and STS-SS/DTS-SS close
together; ESSAT duty cycles grow with the base rate.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure3_duty_cycle_vs_rate


def test_fig3_duty_cycle_vs_rate(scale, store_use) -> None:
    figure = figure3_duty_cycle_vs_rate(
        scale.scenario(),
        rates=scale.rates,
        store=store_use.store,
        progress=store_use,
    )
    print_figure(figure)
    store_use.assert_stored_jobs_replayed()

    rates = figure.x_values()
    top_rate = max(rates)
    for rate in rates:
        span = figure.get("SPAN").value_at(rate)
        psm = figure.get("PSM").value_at(rate)
        dts = figure.get("DTS-SS").value_at(rate)
        sts = figure.get("STS-SS").value_at(rate)
        nts = figure.get("NTS-SS").value_at(rate)
        # The always-on backbone costs far more energy than any ESSAT
        # protocol (SPAN and PSM are close to each other: which of the two is
        # higher depends on the interior-node fraction of the sampled tree).
        assert span > nts and span > sts and span > dts
        assert span > 2 * dts
        # The shaped ESSAT protocols beat PSM at every rate.
        assert dts < psm
        assert sts < psm

    # NTS-SS is the least efficient ESSAT protocol under load.
    assert figure.get("NTS-SS").value_at(top_rate) >= figure.get("DTS-SS").value_at(top_rate)
    assert figure.get("NTS-SS").value_at(top_rate) >= figure.get("STS-SS").value_at(top_rate)
    # ESSAT duty cycles grow with the offered load.
    for name in ("DTS-SS", "STS-SS", "NTS-SS"):
        series = figure.get(name)
        assert series.value_at(top_rate) > series.value_at(min(rates))

"""Figure 8: histogram of sleep-interval lengths with T_BE = 0 (5 Hz workload).

Paper result: the observed sleep intervals are spread over many lengths --
direct evidence that the workload seen inside the network is aperiodic even
though the sources are periodic -- and a non-trivial fraction of intervals is
shorter than realistic radio break-even times (0.40 % / 0.85 % / 6.33 % below
2.5 ms for NTS-SS / STS-SS / DTS-SS), which is why Safe Sleep must gate
sleeps on T_BE.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import MICA2_BREAK_EVEN, figure8_sleep_interval_histogram


def test_fig8_sleep_interval_histogram(scale, store_use) -> None:
    figure = figure8_sleep_interval_histogram(
        scale.scenario(),
        base_rate_hz=5.0,
        store=store_use.store,
        progress=store_use,
    )
    print_figure(figure)
    store_use.assert_stored_jobs_replayed()

    for protocol in ("NTS-SS", "STS-SS", "DTS-SS"):
        series = figure.get(protocol)
        total = sum(series.y)
        assert total > 0, f"{protocol} recorded no sleep intervals"
        # Aperiodic workload: the sleep intervals are not concentrated in a
        # single bucket -- several distinct interval lengths occur.
        occupied = sum(1 for count in series.y if count > 0)
        assert occupied >= 3
        fraction_short = figure.notes[f"{protocol}_fraction_below_2.5ms"]
        # Short intervals exist but remain a small minority, as in the paper
        # (at most a few percent below the 2.5 ms MICA2 wake-up delay).
        assert 0.0 <= fraction_short <= 0.25

    # The adaptive shaper produces the largest share of very short sleeps
    # (the paper reports 6.33 % for DTS-SS vs 0.40 % for NTS-SS), so DTS-SS
    # must be at least as exposed to the break-even effect as NTS-SS.
    assert (
        figure.notes["DTS-SS_fraction_below_2.5ms"]
        >= figure.notes["NTS-SS_fraction_below_2.5ms"] - 0.02
    )
    assert MICA2_BREAK_EVEN == 0.0025

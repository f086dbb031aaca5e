"""Figure 9: impact of the radio break-even time on the DTS-SS duty cycle.

Paper result: for break-even times up to 10 ms (typical MICA2 radios) the
duty cycle increases only moderately, but a 40 ms break-even time (ZebraNet
radio) costs up to 30 percentage points because Safe Sleep must refuse every
sleep interval shorter than T_BE.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure9_break_even_time
from repro.experiments.scenarios import BREAK_EVEN_TIMES


def test_fig9_break_even_time(scale) -> None:
    figure = figure9_break_even_time(
        scale.scenario(),
        rates=scale.rates,
        break_even_times=BREAK_EVEN_TIMES,
    )
    print_figure(figure)

    rates = figure.x_values()
    top_rate = max(rates)
    ideal = figure.get("TBE=0ms")
    mica_typ = figure.get("TBE=2.5ms")
    mica_worst = figure.get("TBE=10ms")
    zebranet = figure.get("TBE=40ms")

    for rate in rates:
        # A larger break-even time can only increase the duty cycle (in
        # expectation; a single replication can invert close neighbours by
        # under a point because different sleep patterns shift CSMA
        # contention timing -- the channel's collision-window fidelity fix
        # made that jitter slightly larger at this reduced scale).
        assert zebranet.value_at(rate) >= mica_worst.value_at(rate) - 1.0
        assert mica_worst.value_at(rate) >= ideal.value_at(rate) - 1.0
        assert mica_typ.value_at(rate) >= ideal.value_at(rate) - 1.0

    # The ZebraNet-class radio pays a clearly visible penalty at high rate,
    # while MICA2-class break-even times stay close to the ideal radio.
    assert zebranet.value_at(top_rate) > ideal.value_at(top_rate) + 1.0
    assert mica_typ.value_at(top_rate) < zebranet.value_at(top_rate)

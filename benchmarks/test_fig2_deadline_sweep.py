"""Figure 2: impact of the query deadline on STS-SS duty cycle and latency.

Paper result: as the deadline D grows, the average duty cycle decreases
monotonically until the local deadline ``l = D / M`` reaches ``Tagg``
(D ~= 0.12 s in the paper's setup); past that point the query latency keeps
growing proportionally to D without any further duty-cycle benefit.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure2_deadline_sweep


def test_fig2_deadline_sweep(scale) -> None:
    figure = figure2_deadline_sweep(scale.scenario(), deadlines=scale.deadlines)
    print_figure(figure)

    duty = figure.get("duty_cycle_pct")
    latency = figure.get("query_latency_s")
    smallest, largest = min(duty.x), max(duty.x)

    # Duty cycle improves (or at least does not degrade) as the deadline grows.
    assert duty.value_at(largest) <= duty.value_at(smallest) + 1.0
    # Latency grows with the deadline once past the knee, and roughly tracks
    # the deadline itself (Lq = M * max(l, Tagg) with l = D / M).
    assert latency.value_at(largest) > latency.value_at(smallest)
    assert latency.value_at(largest) > 0.5 * largest
    # The knee detected from the duty-cycle series lies strictly inside the
    # sweep: beyond it the extra deadline is pure latency cost.
    assert smallest <= figure.notes["knee_deadline_s"] <= largest

"""Figure 5: distribution of duty cycles over node ranks (one typical run, 5 Hz).

Paper result: NTS-SS's duty cycle grows roughly linearly with node rank
(Equation 1), while STS-SS and DTS-SS keep the duty cycle essentially
independent of rank, which is why they scale to deeper routing trees and
spread the energy consumption evenly.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import figure5_duty_cycle_by_rank


def _mean_over_ranks(series, ranks) -> float:
    values = [series.value_at(rank) for rank in ranks if series.value_at(rank) is not None]
    return sum(values) / len(values)


def test_fig5_duty_cycle_by_rank(scale, store_use) -> None:
    figure = figure5_duty_cycle_by_rank(
        scale.scenario(),
        base_rate_hz=5.0,
        store=store_use.store,
        progress=store_use,
    )
    print_figure(figure)
    store_use.assert_stored_jobs_replayed()

    nts = figure.get("NTS-SS")
    sts = figure.get("STS-SS")
    dts = figure.get("DTS-SS")

    # NTS-SS: the deepest-ranked nodes (near the root) idle far longer than
    # rank-1 nodes.
    max_rank = max(nts.x)
    assert max_rank >= 2, "tree too shallow to show the rank effect"
    assert nts.value_at(max_rank) > nts.value_at(1.0)

    # At every interior/root rank NTS-SS is the least efficient protocol:
    # its idle-listening penalty grows with rank (Equation 1), while STS-SS
    # and DTS-SS only pay the unavoidable communication cost.
    positive_ranks = [rank for rank in nts.x if rank >= 1]
    for rank in positive_ranks:
        assert nts.value_at(rank) >= sts.value_at(rank) - 0.5
        assert nts.value_at(rank) >= dts.value_at(rank) - 0.5
    assert _mean_over_ranks(nts, positive_ranks) > _mean_over_ranks(sts, positive_ranks)
    assert _mean_over_ranks(nts, positive_ranks) > _mean_over_ranks(dts, positive_ranks)

"""The abstract's headline claims, recomputed from the reproduced sweeps.

Paper claim: DTS-SS achieves an average node duty cycle 38-87 % lower than
SPAN, and query latencies 36-98 % lower than PSM and SYNC.  This benchmark
re-derives the equivalent reduction ranges from the Figure 3 and Figure 6
series produced by this reproduction and checks that the direction and
order of magnitude of the claim hold.
"""

from __future__ import annotations

from conftest import print_figure

from repro.experiments.figures import (
    figure3_duty_cycle_vs_rate,
    figure6_latency_vs_rate,
    headline_claims,
)


def test_headline_claims(scale, store_use) -> None:
    scenario, rates, store = scale.scenario(), scale.rates, store_use.store
    figure3 = figure3_duty_cycle_vs_rate(
        scenario, rates=rates, protocols=("DTS-SS", "SPAN"), store=store, progress=store_use
    )
    figure6 = figure6_latency_vs_rate(
        scenario, rates=rates, protocols=("DTS-SS", "PSM", "SYNC"), store=store, progress=store_use
    )
    claims = headline_claims(figure3, figure6)
    print_figure(figure3)
    print_figure(figure6)
    store_use.assert_stored_jobs_replayed()
    print()
    for key, value in claims.items():
        print(f"  {key} = {value:.1f}%")

    # Duty cycle: DTS-SS saves substantially against SPAN at every rate
    # (the paper reports reductions between 38 % and 87 %).
    assert claims["duty_cycle_reduction_vs_span_min_pct"] > 30.0
    assert claims["duty_cycle_reduction_vs_span_max_pct"] <= 100.0

    # Latency: DTS-SS is far below PSM and SYNC at every rate (the paper
    # reports reductions between 36 % and 98 %).
    assert claims["latency_reduction_vs_psm_min_pct"] > 36.0
    assert claims["latency_reduction_vs_sync_min_pct"] > 36.0
    assert claims["latency_reduction_vs_psm_max_pct"] <= 100.0
    assert claims["latency_reduction_vs_sync_max_pct"] <= 100.0

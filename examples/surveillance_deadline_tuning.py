#!/usr/bin/env python3
"""Surveillance scenario: tuning STS-SS's deadline, and why DTS-SS exists.

The paper's motivating example is a surveillance application that must
report events within a few seconds.  With STS-SS the operator has to choose
the query deadline ``D``: the local deadline ``l = D / M`` trades energy
against latency, and the sweet spot sits where ``l`` approaches the per-hop
aggregation time ``Tagg`` (Figure 2 / Equations 2-3).  DTS-SS finds that
operating point by itself.

This example sweeps the deadline for STS-SS, prints the measured trade-off
next to the closed-form prediction, and then shows that DTS-SS -- with no
tuning knob at all -- lands near the knee.

Run with:  python examples/surveillance_deadline_tuning.py
"""

from __future__ import annotations

from repro.core.analysis import (
    estimate_aggregation_cost,
    sts_optimal_deadline,
    sts_query_latency,
)
from repro.experiments.config import smoke_scale
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.query.workload import WorkloadSpec


def main() -> None:
    scenario = smoke_scale().with_overrides(duration=30.0)
    base_rate = 2.0
    deadlines = [0.05, 0.1, 0.2, 0.35, 0.5]

    print("STS-SS deadline sweep (surveillance query at "
          f"{base_rate:g} Hz base rate, {scenario.num_nodes} nodes)")
    print(f"{'deadline':>9} {'duty cycle':>11} {'latency':>9}")
    specs = [
        ExperimentSpec(
            scenario,
            "STS-SS",
            workload=WorkloadSpec(base_rate_hz=base_rate, queries_per_class=1, deadline=deadline),
            num_runs=1,
        )
        for deadline in deadlines
    ]
    results = {}
    for deadline, result in zip(deadlines, run_sweep(specs), strict=True):
        results[deadline] = result.metrics
        print(
            f"{deadline:>8.2f}s {result.metrics.average_duty_cycle * 100:>10.2f}% "
            f"{result.metrics.average_query_latency * 1000:>7.1f}ms"
        )

    # Closed-form guidance (Equations 2-3): the knee sits at D = M * Tagg.
    # Estimate Tagg from the MAC parameters and a typical fan-out of 3.
    cost = estimate_aggregation_cost(num_children=3, mac_config=scenario.mac_config)
    # A smoke-scale tree is about 3 hops deep.
    max_rank = 3
    knee = sts_optimal_deadline(max_rank, cost)
    print(f"\npredicted knee deadline (D = M * Tagg): {knee * 1000:.0f} ms")
    print(
        "predicted latency at the knee        : "
        f"{sts_query_latency(max_rank, knee / max_rank, cost) * 1000:.0f} ms"
    )

    # DTS-SS requires no deadline at all.
    workload = WorkloadSpec(base_rate_hz=base_rate, queries_per_class=1)
    (dts,) = run_sweep([ExperimentSpec(scenario, "DTS-SS", workload=workload, num_runs=1)])
    print(
        "\nDTS-SS (self-tuning)                  : "
        f"duty {dts.metrics.average_duty_cycle * 100:.2f} %, "
        f"latency {dts.metrics.average_query_latency * 1000:.1f} ms"
    )
    best_sts_duty = min(metrics.average_duty_cycle for metrics in results.values())
    print(
        "best STS-SS duty cycle over the sweep : "
        f"{best_sts_duty * 100:.2f} % (found only by trying every deadline)"
    )


if __name__ == "__main__":
    main()

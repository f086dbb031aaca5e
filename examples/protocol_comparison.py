#!/usr/bin/env python3
"""Compare every protocol on the same network and workload.

Runs NTS-SS, STS-SS, DTS-SS and the SYNC / PSM / SPAN / always-on baselines
over an identical random deployment and three-class query workload, then
prints an energy/latency comparison table -- a one-workload slice of the
paper's Figures 3 and 6.

Run with:  python examples/protocol_comparison.py [base_rate_hz]
"""

from __future__ import annotations

import sys

from repro.experiments.config import reduced_scale
from repro.experiments.runner import ALL_PROTOCOLS
from repro.experiments.scenarios import rate_sweep_workload
from repro.experiments.tables import comparison_table
from repro.orchestrator.api import ExperimentSpec, run_sweep


def main() -> None:
    base_rate = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    scenario = reduced_scale().with_overrides(duration=30.0)
    workload = rate_sweep_workload(base_rate)

    print(
        f"{scenario.num_nodes} nodes, {scenario.duration:g}s, three query classes "
        f"at base rate {base_rate:g} Hz (rate ratio 6:3:2)\n"
    )
    specs = [
        ExperimentSpec(scenario, protocol, workload=workload, num_runs=1)
        for protocol in ALL_PROTOCOLS
    ]
    results = {result.protocol: result for result in run_sweep(specs)}

    table = {
        name: {
            "duty_cycle_%": result.metrics.average_duty_cycle * 100.0,
            "latency_ms": result.metrics.average_query_latency * 1000.0,
            "delivery_ratio": result.metrics.delivery_ratio,
            "energy_J_per_node": (
                sum(result.metrics.energy_per_node.values())
                / max(1, len(result.metrics.energy_per_node))
            ),
        }
        for name, result in results.items()
    }
    print(
        comparison_table(
            table, ["duty_cycle_%", "latency_ms", "delivery_ratio", "energy_J_per_node"]
        )
    )

    dts = results["DTS-SS"].metrics
    span = results["SPAN"].metrics
    psm = results["PSM"].metrics
    sync = results["SYNC"].metrics
    print()
    print(
        "DTS-SS duty cycle vs SPAN : "
        f"{100 * (1 - dts.average_duty_cycle / span.average_duty_cycle):.0f} % lower"
    )
    print(
        "DTS-SS latency vs PSM     : "
        f"{100 * (1 - dts.average_query_latency / psm.average_query_latency):.0f} % lower"
    )
    print(
        "DTS-SS latency vs SYNC    : "
        f"{100 * (1 - dts.average_query_latency / sync.average_query_latency):.0f} % lower"
    )


if __name__ == "__main__":
    main()

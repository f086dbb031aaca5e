#!/usr/bin/env python3
"""Fire-monitoring scenario: a workload surge plus a node failure.

The paper motivates adaptive power management with a fire-monitoring system:
under normal conditions the network carries a light monitoring workload, but
once a fire is detected many new queries are registered to support the
response.  A power-management protocol therefore has to (a) adapt its duty
cycle to the current workload and (b) survive node failures.

This example runs DTS-SS through exactly that story on one network:

* phase 1 (0-40 s): a single slow monitoring query,
* phase 2 (40-80 s): six additional fast queries are registered ("fire
  detected"), and
* at 60 s one relay node fails permanently and the protocol repairs itself.

It prints the duty cycle and delivery statistics per phase, showing the duty
cycle scaling with the workload, and the delivery ratio staying high across
the failure.

Run with:  python examples/fire_monitoring_adaptive_workload.py
"""

from __future__ import annotations

from repro.core.protocol import EssatProtocolSuite
from repro.net.node import build_network
from repro.net.topology import generate_connected_random_topology
from repro.query.query import QuerySpec
from repro.radio.energy import MICA2_TYPICAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator

PHASE_1_END = 40.0
PHASE_2_END = 80.0
FAILURE_TIME = 60.0


def main() -> None:
    topology = generate_connected_random_topology(
        num_nodes=30, area=(320.0, 320.0), comm_range=125.0, seed=11
    )
    sim = Simulator(seed=11)
    network = build_network(sim, topology, power_profile=MICA2_TYPICAL)
    tree = build_routing_tree(topology, root=topology.center_node())

    deliveries = []
    suite = EssatProtocolSuite(
        sim,
        network,
        tree,
        shaper="dts",
        on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, t)),
    )

    # Phase 1: light monitoring -- one temperature query every 5 seconds.
    monitoring = QuerySpec(query_id=1, period=5.0, start_time=1.0)
    suite.register_query(monitoring)

    # Phase 2: the "fire detected" surge -- six faster queries arrive at 40 s.
    surge_queries = [
        QuerySpec(query_id=10 + i, period=period, start_time=PHASE_1_END + 0.5 + 0.1 * i)
        for i, period in enumerate((0.5, 0.5, 1.0, 1.0, 2.0, 2.0))
    ]

    def register_surge() -> None:
        print(f"[t={sim.now:6.1f}s] fire detected: registering {len(surge_queries)} new queries")
        for query in surge_queries:
            suite.register_query(query)

    sim.schedule_at(PHASE_1_END, register_surge)

    # A relay close to the root fails mid-response.
    candidates = [n for n in tree.interior_nodes if n != tree.root]
    victim = max(candidates, key=lambda n: len(tree.subtree(n)) if tree.level(n) == 1 else 0)

    def fail_relay() -> None:
        reattached, detached = suite.fail_node(victim)
        moves = ", ".join(f"{orphan} -> {parent}" for orphan, parent in reattached.items())
        print(
            f"[t={sim.now:6.1f}s] relay {victim} failed; "
            f"re-attached {moves or 'nothing'} (detached: {detached})"
        )

    sim.schedule_at(FAILURE_TIME, fail_relay)

    # Run phase 1, snapshot the duty cycle, then run phase 2.
    sim.run(until=PHASE_1_END)
    phase1_active = {
        node_id: network.node(node_id).radio.tracker.active_time() for node_id in tree.nodes
    }
    phase1_deliveries = len(deliveries)

    sim.run(until=PHASE_2_END)
    network.finalize()

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    phase1_duty = mean(active / PHASE_1_END for active in phase1_active.values())
    phase2_duty = mean(
        (network.node(n).radio.tracker.active_time() - phase1_active[n])
        / (PHASE_2_END - PHASE_1_END)
        for n in tree.nodes
        if n in suite.nodes  # the failed relay stops being representative
    )

    print()
    print("phase 1 (monitoring only) :"
          f" average duty cycle {phase1_duty * 100:6.2f} %, {phase1_deliveries} deliveries")
    print("phase 2 (fire response)   :"
          f" average duty cycle {phase2_duty * 100:6.2f} %, "
          f"{len(deliveries) - phase1_deliveries} deliveries")
    print(f"duty cycle scaled by      : x{phase2_duty / max(phase1_duty, 1e-9):.1f} "
          "with no manual reconfiguration")

    after_failure = [t for _, _, t in deliveries if t > FAILURE_TIME + 2.0]
    print(f"deliveries after the node failure (t > {FAILURE_TIME + 2.0:.0f}s): {len(after_failure)}")


if __name__ == "__main__":
    main()

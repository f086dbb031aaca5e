#!/usr/bin/env python3
"""Quickstart: run DTS-SS on a small sensor network and print the results.

This example builds the whole stack by hand so you can see every moving
piece: topology -> network (radios + CSMA/CA MAC + channel) -> routing tree
-> ESSAT protocol (DTS traffic shaper + Safe Sleep) -> a periodic
aggregation query.  It then reports the per-node duty cycles and the query
latency observed at the root.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.protocol import EssatProtocolSuite
from repro.net.node import build_network
from repro.net.topology import generate_connected_random_topology
from repro.query.aggregation import AggregationFunction
from repro.query.query import QuerySpec
from repro.radio.energy import MICA2_TYPICAL
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


def main() -> None:
    # 1. A 25-node random deployment with a 125 m radio range.
    topology = generate_connected_random_topology(
        num_nodes=25, area=(300.0, 300.0), comm_range=125.0, seed=7
    )

    # 2. The simulation engine and the network substrate (MICA2-class radios).
    sim = Simulator(seed=7)
    network = build_network(sim, topology, power_profile=MICA2_TYPICAL)

    # 3. The aggregation tree rooted at the node closest to the centre.
    tree = build_routing_tree(topology, root=topology.center_node())
    print(f"routing tree: {len(tree)} nodes, depth {tree.depth}, root {tree.root}")

    # 4. Install DTS-SS (dynamic traffic shaper + Safe Sleep) on every node.
    deliveries = []
    suite = EssatProtocolSuite(
        sim,
        network,
        tree,
        shaper="dts",
        on_root_delivery=lambda qid, k, report, t: deliveries.append((qid, k, report, t)),
    )

    # 5. A query: every leaf reports once per second, averaged in-network.
    query = QuerySpec(
        query_id=1,
        period=1.0,
        start_time=2.0,
        aggregation=AggregationFunction.AVG,
    )
    suite.register_query(query)

    # 6. Run for 60 simulated seconds and close the energy accounting.
    sim.run(until=60.0)
    network.finalize()

    # 7. Report.
    duty_cycles = {
        node_id: network.node(node_id).radio.tracker.duty_cycle() for node_id in tree.nodes
    }
    average_duty = sum(duty_cycles.values()) / len(duty_cycles)
    latencies = [t - query.report_time(k) for _, k, _, t in deliveries]

    print(f"deliveries at root        : {len(deliveries)}")
    print(f"average node duty cycle   : {average_duty * 100:.2f} %")
    print(f"max node duty cycle       : {max(duty_cycles.values()) * 100:.2f} %")
    print(f"average query latency     : {1000 * sum(latencies) / len(latencies):.1f} ms")
    print(f"worst query latency       : {1000 * max(latencies):.1f} ms")
    shifts = sum(node.shaper.stats.phase_shifts for node in suite.nodes.values())
    print(f"DTS phase shifts          : {shifts}")
    print(f"DTS overhead              : {suite.overhead_bits_per_report():.2f} bits/report")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Distributed routing-tree construction by flooding a setup request.

The paper's query service builds its aggregation tree by flooding a setup
request from the base station; every node adopts the sender with the lowest
level as its parent.  This example runs that protocol over the simulated
CSMA/CA network and compares the resulting tree with the centralized
shortest-hop construction the experiments use (they agree on levels; parent
choices may differ only where several parents tie).

Run with:  python examples/tree_setup_flood.py
"""

from __future__ import annotations

from collections import Counter

from repro.net.node import build_network
from repro.net.topology import generate_connected_random_topology
from repro.radio.energy import IDEAL
from repro.routing.flood import FloodSetup
from repro.routing.tree import build_routing_tree
from repro.sim.engine import Simulator


def main() -> None:
    topology = generate_connected_random_topology(
        num_nodes=40, area=(400.0, 400.0), comm_range=125.0, seed=3
    )
    root = topology.center_node()

    sim = Simulator(seed=3)
    network = build_network(sim, topology, power_profile=IDEAL)
    setup = FloodSetup(sim, network, root=root)
    setup.start(at=0.0)
    sim.run(until=5.0)

    flooded = setup.result()
    centralized = build_routing_tree(topology, root=root)

    print(f"nodes reachable from root {root}: {len(topology.connected_component_of(root))}")
    print(f"flooded tree coverage            : {setup.coverage() * 100:.1f} %")
    print(f"flooded tree depth               : {flooded.depth}")
    print(f"centralized tree depth           : {centralized.depth}")

    level_matches = sum(
        1 for node in centralized.nodes if node in flooded and flooded.level(node) == centralized.level(node)
    )
    print(f"nodes with identical level       : {level_matches}/{len(centralized)}")

    parent_matches = sum(
        1
        for node in centralized.nodes
        if node in flooded and flooded.parent_of(node) == centralized.parent_of(node)
    )
    print(f"nodes with identical parent      : {parent_matches}/{len(centralized)} "
          "(ties may be broken differently)")

    print("\nnodes per level (flooded tree):")
    counts = Counter(flooded.level(node) for node in flooded.nodes)
    for level in sorted(counts):
        print(f"  level {level}: {counts[level]:3d} nodes")

    setup_frames = sum(network.node(n).mac.stats.broadcasts_sent for n in topology.node_ids)
    print(f"\nsetup broadcasts transmitted     : {setup_frames}")


if __name__ == "__main__":
    main()

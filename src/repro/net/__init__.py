"""Network substrate: packets, topology, propagation, wireless channel, nodes."""

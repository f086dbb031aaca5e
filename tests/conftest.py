"""Shared pytest fixtures for the ESSAT reproduction test suite."""

from __future__ import annotations

import pytest

from repro.mac.base import MacConfig
from repro.net.node import Network, build_network
from repro.net.topology import Topology
from repro.radio.energy import IDEAL, MICA2_TYPICAL, PowerProfile
from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=7)


@pytest.fixture
def line_topology() -> Topology:
    """A 4-node line topology: 0 - 1 - 2 - 3 (only adjacent nodes connected)."""
    return Topology.line(num_nodes=4, spacing=100.0, comm_range=120.0)


@pytest.fixture
def line_network(sim: Simulator, line_topology: Topology) -> Network:
    """A network over the 4-node line with an ideal (zero-transition) radio."""
    return build_network(sim, line_topology, power_profile=IDEAL)


@pytest.fixture
def mica2_profile() -> PowerProfile:
    """The MICA2 typical power profile (2.5 ms wake-up)."""
    return MICA2_TYPICAL


@pytest.fixture
def mac_config() -> MacConfig:
    """Default 1 Mbps MAC configuration."""
    return MacConfig()

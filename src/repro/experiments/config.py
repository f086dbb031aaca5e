"""Scenario configuration for the reproduction experiments.

The paper's setup (Section 5): 80 nodes uniformly random in 500 x 500 m,
125 m communication range, IEEE 802.11b at 1 Mbps, 52-byte data reports,
routing tree rooted at the node closest to the centre and spanning all nodes
within 300 m of the root, 200 s runs, each data point averaged over 5 runs
with re-randomised node locations and query start times.

Running that full configuration for every protocol and every sweep point
takes hours in a pure-Python simulator, so three scenario factories are
provided:

* :func:`paper_scale` -- the paper's exact parameters,
* :func:`reduced_scale` -- a smaller network and shorter runs that preserve
  the qualitative behaviour (multi-hop tree, contention, multiple query
  classes); the default of the CLI, the figure functions and the benchmark
  suite,
* :func:`smoke_scale` -- a seconds-long network for functional tests.

:data:`repro.experiments.scenarios.SCALES` pairs each of them with the
sweep grid its figures run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..mac.base import MacConfig
from ..net.loss import LossSpec
from ..net.propagation import PropagationSpec
from ..net.topology import FailureSchedule
from ..radio.energy import IDEAL, PowerProfile
from ..sim.units import mbps

@dataclass(frozen=True)
class ScenarioConfig:
    """All parameters needed to build and run one simulation scenario."""

    #: Number of nodes placed uniformly at random in the area.
    num_nodes: int = 80
    #: Deployment area in metres.
    area: Tuple[float, float] = (500.0, 500.0)
    #: Radio communication range in metres (disk model).
    comm_range: float = 125.0
    #: Only nodes within this distance of the root join the routing tree.
    max_distance_from_root: Optional[float] = 300.0
    #: Simulated duration in seconds.
    duration: float = 200.0
    #: Number of independent replications (different placements/start times).
    num_runs: int = 5
    #: Base random seed; replication ``i`` uses ``seed + i``.
    seed: int = 1
    #: Radio power profile (transition latencies, power draws).
    power_profile: PowerProfile = IDEAL
    #: Break-even time override handed to Safe Sleep (``None`` = from profile).
    break_even_time: Optional[float] = None
    #: MAC configuration (1 Mbps, 802.11b-like timing by default).
    mac_config: MacConfig = field(default_factory=lambda: MacConfig(bandwidth_bps=mbps(1)))
    #: Start measuring metrics at this time (0 = from the beginning).
    measure_from: float = 0.0
    #: Scheduled permanent node failures (churn); ``None`` = no failures.
    failure_schedule: Optional[FailureSchedule] = None
    #: Propagation/reception model (unit disk, log-distance shadowing, SINR
    #: capture); the paper's setup is the unit-disk default.
    propagation: PropagationSpec = field(default_factory=PropagationSpec)
    #: Injected packet loss (none, uniform, Gilbert-Elliott bursty links).
    loss: LossSpec = field(default_factory=LossSpec)

    def __post_init__(self) -> None:
        if self.num_nodes <= 1:
            raise ValueError(f"need at least two nodes, got {self.num_nodes}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.num_runs <= 0:
            raise ValueError(f"number of runs must be positive, got {self.num_runs!r}")

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


def paper_scale() -> ScenarioConfig:
    """The paper's exact experimental configuration."""
    return ScenarioConfig()


def reduced_scale() -> ScenarioConfig:
    """A scaled-down configuration for routine benchmark runs.

    A 36-node network in a 350 x 350 m area keeps the routing tree 3-4 hops
    deep (the same depth regime as the paper's 300-m-radius tree), and 40 s
    runs with a single replication keep every figure's sweep within minutes
    on a laptop while preserving the protocols' relative behaviour.
    """
    return ScenarioConfig(
        num_nodes=36,
        area=(350.0, 350.0),
        comm_range=125.0,
        max_distance_from_root=300.0,
        duration=40.0,
        num_runs=1,
        seed=1,
    )


def smoke_scale() -> ScenarioConfig:
    """A minimal configuration for fast functional tests of the harness."""
    return ScenarioConfig(
        num_nodes=12,
        area=(220.0, 220.0),
        comm_range=110.0,
        max_distance_from_root=None,
        duration=12.0,
        num_runs=1,
        seed=1,
    )


"""Workload and sweep definitions matching the paper's evaluation (Section 5).

Each figure uses one of two workload families:

* **rate sweep** -- one query per class, base rate varied from 1 Hz to 5 Hz
  (Figures 3, 6, 9; Figures 5 and 8 use the 5 Hz point),
* **query-count sweep** -- base rate fixed at 0.2 Hz, number of queries per
  class varied from 1 to 10 (Figures 4 and 7).

:data:`SCALES` is the one place a scale name is decided: each entry pairs a
scenario with the sweep grid its figures run.  ``paper`` is the paper's
80-node scenario on its full grid; ``reduced`` (the default of the CLI and
of every figure function) and ``smoke`` trim the grid to the end points
plus the middle, so the whole figure suite runs in minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..query.workload import WorkloadSpec
from .config import ScenarioConfig, paper_scale, reduced_scale, smoke_scale


@dataclass(frozen=True)
class Scale:
    """One ``--scale`` entry: a scenario and the sweep grid of its figures.

    Each grid field is named after the figure functions' sweep argument.
    """

    #: Builds the scenario every run of this scale uses.
    scenario: Callable[[], ScenarioConfig]
    #: Base rates (Hz) of the rate sweep (Figures 3, 6, 9 and the overhead).
    rates: Tuple[float, ...]
    #: Queries-per-class values of the multi-query sweep (Figures 4, 7).
    counts: Tuple[int, ...]
    #: Query deadlines (seconds) swept in Figure 2.
    deadlines: Tuple[float, ...]


#: The reduced scale keeps the end points and the middle of each sweep.
REDUCED = Scale(
    scenario=reduced_scale,
    rates=(1.0, 3.0, 5.0),
    counts=(1, 4, 8),
    deadlines=(0.04, 0.12, 0.3, 0.6),
)

#: Scale name -> scenario and sweep grid.  Smoke shares the reduced grid.
SCALES: Dict[str, Scale] = {
    "smoke": replace(REDUCED, scenario=smoke_scale),
    "reduced": REDUCED,
    "paper": Scale(
        scenario=paper_scale,
        rates=(1.0, 2.0, 3.0, 4.0, 5.0),
        counts=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
        deadlines=(0.04, 0.08, 0.12, 0.16, 0.2, 0.3, 0.4, 0.6, 0.8),
    ),
}

#: Base rate of the multi-query sweep (Figures 4 and 7).
MULTI_QUERY_BASE_RATE: float = 0.2

#: Break-even times (seconds) swept in Figure 9: ideal, MICA2 typical,
#: MICA2 worst case, ZebraNet.
BREAK_EVEN_TIMES: Sequence[float] = (0.0, 0.0025, 0.010, 0.040)

#: The paper's protocol sets per figure.
DUTY_CYCLE_PROTOCOLS: Sequence[str] = ("DTS-SS", "STS-SS", "NTS-SS", "PSM", "SPAN")
LATENCY_PROTOCOLS: Sequence[str] = ("DTS-SS", "STS-SS", "NTS-SS", "PSM", "SPAN", "SYNC")
ESSAT_ONLY: Sequence[str] = ("DTS-SS", "STS-SS", "NTS-SS")


def rate_sweep_workload(base_rate_hz: float, deadline: Optional[float] = None) -> WorkloadSpec:
    """One query per class at the given base rate (Figures 3, 5, 6, 8, 9)."""
    return WorkloadSpec(base_rate_hz=base_rate_hz, queries_per_class=1, deadline=deadline)


def query_count_workload(queries_per_class: int) -> WorkloadSpec:
    """``queries_per_class`` queries per class at the 0.2 Hz base rate (Figures 4, 7)."""
    return WorkloadSpec(base_rate_hz=MULTI_QUERY_BASE_RATE, queries_per_class=queries_per_class)


def deadline_sweep_workload(deadline: float, base_rate_hz: float = 5.0) -> WorkloadSpec:
    """Three queries (one per class) with an explicit STS deadline (Figure 2)."""
    return WorkloadSpec(base_rate_hz=base_rate_hz, queries_per_class=1, deadline=deadline)

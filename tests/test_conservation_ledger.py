"""End-of-run conservation ledger: what a run accounts for must add up.

Every protocol runs the smoke scenario to its end, with and without node
churn, and two balances are checked on every node:

* radio residency: the time the duty-cycle tracker booked across all radio
  states equals the run's duration;
* MAC frames: every frame the transmit queue accepted was sent, given up
  after its retries, is still queued, or is the one frame in flight.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.runner import ALL_PROTOCOLS, assemble_run
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.topology import FailureSchedule
from repro.query.workload import generate_queries
from repro.sim.rng import RandomStreams

SEEDS = (1, 12)

CHURN = FailureSchedule(fraction=0.3, window=(3.0, 9.0))

#: Slack on the residency sum: float accumulation over thousands of stretches.
RESIDENCY_TOLERANCE = 1e-9


def ledger_violations(run) -> list[str]:
    """Every per-node imbalance of a finished run, one line each."""
    duration = run.scenario.duration
    violations = []
    for node_id, node in sorted(run.network.nodes.items()):
        booked = node.radio.tracker.total_time()
        if abs(booked - duration) > RESIDENCY_TOLERANCE:
            violations.append(f"node {node_id}: radio residency {booked!r} != {duration!r}")
        mac = node.mac
        stats, queue = mac.stats, mac.queue
        in_flight = 1 if mac._current is not None else 0
        settled = stats.frames_sent + stats.send_failures + len(queue) + in_flight
        if queue.enqueued != settled:
            violations.append(
                f"node {node_id}: {queue.enqueued} frames enqueued, {stats.frames_sent} sent"
                f" + {stats.send_failures} failed + {len(queue)} queued + {in_flight} in flight"
            )
    return violations


@pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_node_balances_its_ledger(protocol: str, seed: int, churn: bool) -> None:
    scenario = smoke_scale()
    if churn:
        scenario = scenario.with_overrides(failure_schedule=CHURN)
    queries = generate_queries(rate_sweep_workload(2.0), streams=RandomStreams(seed))
    run = assemble_run(scenario, protocol, queries, seed)
    run.execute()
    assert ledger_violations(run) == []

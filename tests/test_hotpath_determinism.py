"""Determinism guarantees of the hot-path engine and channel.

The hot-path overhaul (``__slots__`` tuple-heap events, lazy deletion, the
channel's carrier-sense index, inlined radio accounting) is only admissible
because it changes *nothing* observable: same seed => identical metrics,
identical ``ChannelStats``, identical trace sequence.  These tests pin that
three ways:

* golden snapshots (``tests/golden/hotpath_golden.json``) of per-seed
  metrics and full-trace digests on the ``smoke`` and ``reduced`` scales,
* run-twice-in-one-process identity (catches accidental global state),
* parallel == serial bit-for-bit through the orchestrator, re-asserted
  against the new engine.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.experiments.config import smoke_scale
from repro.orchestrator.api import ExperimentSpec, run_sweep
from repro.experiments.scenarios import rate_sweep_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "hotpath_golden.json"

# The snapshot tool doubles as the regeneration script; load it by path so
# the tests and the committed golden can never disagree about methodology.
_spec = importlib.util.spec_from_file_location(
    "make_hotpath_golden", GOLDEN_DIR / "make_hotpath_golden.py"
)
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _split(key: str):
    scale, protocol, seed_part = key.split("/")
    return scale, protocol, int(seed_part.split("=")[1])


class TestGoldenSnapshots:
    def test_metrics_cells_match_golden(self, golden) -> None:
        for key, expected in golden["cells"].items():
            scale, protocol, seed = _split(key)
            got = golden_tool.metrics_snapshot(scale, protocol, seed)
            assert got == expected, f"metrics drifted for {key}"

    def test_trace_sequences_match_golden(self, golden) -> None:
        for key, expected in golden["traced"].items():
            scale, protocol, seed = _split(key)
            got = golden_tool.trace_snapshot(scale, protocol, seed)
            assert got == expected, f"trace sequence drifted for {key}"


class TestRunTwiceIdentity:
    """Property-style check: re-running a cell in-process is bit-identical."""

    @pytest.mark.parametrize("protocol", ["DTS-SS", "PSM"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_same_seed_same_everything(self, protocol: str, seed: int) -> None:
        first = golden_tool.metrics_snapshot("smoke", protocol, seed)
        second = golden_tool.metrics_snapshot("smoke", protocol, seed)
        assert first == second

    def test_same_seed_same_trace_digest(self) -> None:
        first = golden_tool.trace_snapshot("smoke", "DTS-SS", 3)
        second = golden_tool.trace_snapshot("smoke", "DTS-SS", 3)
        assert first == second


class TestParallelMatchesSerial:
    def test_parallel_equals_serial_bit_for_bit(self) -> None:
        scenario = smoke_scale()
        specs = [
            ExperimentSpec(
                scenario=scenario,
                protocol=protocol,
                workload=rate_sweep_workload(2.0),
                num_runs=2,
            )
            for protocol in ("DTS-SS", "PSM")
        ]
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=min(2, os.cpu_count() or 1))
        for a, b in zip(serial, parallel, strict=True):
            assert a.metrics.average_duty_cycle == b.metrics.average_duty_cycle
            assert a.metrics.average_query_latency == b.metrics.average_query_latency
            assert a.metrics.delivery_ratio == b.metrics.delivery_ratio
            assert a.metrics.channel_stats == b.metrics.channel_stats
            assert a.metrics.duty_cycle_per_node == b.metrics.duty_cycle_per_node

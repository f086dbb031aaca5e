"""Tests for trace listeners and for tracing as pure observation.

Covers ``unsubscribe`` (idempotent and copy-on-write, like
``TimingTable``) and the guarantee that tracing never changes a result: a
fully traced ``assemble_run`` has the same metrics as the untraced one.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.runner import assemble_run
from repro.experiments.scenarios import rate_sweep_workload
from repro.net.topology import FailureSchedule
from repro.orchestrator.jobs import RunJob
from repro.sim.trace import TraceRecord, TraceRecorder

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The snapshot tool builds the traced run; load it by path, as the
# determinism tests do.
_spec = importlib.util.spec_from_file_location(
    "make_hotpath_golden", GOLDEN_DIR / "make_hotpath_golden.py"
)
golden_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_tool)


class TestUnsubscribe:
    def test_unsubscribe_removes_listener(self) -> None:
        trace = TraceRecorder()
        seen: list = []
        listener = seen.append
        trace.subscribe(listener)
        trace.emit(0.0, "a")
        trace.unsubscribe(listener)
        trace.emit(1.0, "b")
        assert [record.category for record in seen] == ["a"]

    def test_unsubscribe_unknown_listener_is_idempotent(self) -> None:
        trace = TraceRecorder()
        trace.unsubscribe(lambda record: None)  # never subscribed: no error
        listener = lambda record: None  # noqa: E731
        trace.subscribe(listener)
        trace.unsubscribe(listener)
        trace.unsubscribe(listener)
        assert trace._listeners == ()

    def test_unsubscribe_during_notification_completes_old_list(self) -> None:
        # Copy-on-write parity with TimingTable: a listener removing itself
        # (or a peer) mid-notification must not disturb the in-flight pass.
        trace = TraceRecorder()
        calls: list = []

        def second(record: TraceRecord) -> None:
            calls.append("second")

        def first(record: TraceRecord) -> None:
            calls.append("first")
            trace.unsubscribe(second)

        trace.subscribe(first)
        trace.subscribe(second)
        trace.emit(0.0, "x")
        assert calls == ["first", "second"]  # old list completed
        trace.emit(1.0, "y")
        assert calls == ["first", "second", "first"]  # new list thereafter


class TestStreamingRun:
    def test_tracing_does_not_change_results(self) -> None:
        # The two traced golden cells: every record is emitted and buffered,
        # and the outcome matches the untraced run bit for bit.
        for protocol in ("DTS-SS", "PSM"):
            traced = golden_tool.trace_snapshot("smoke", protocol, 1)
            untraced = golden_tool.metrics_snapshot("smoke", protocol, 1)
            assert traced["trace_records"] > 1000, protocol  # really traced
            assert traced["average_duty_cycle"] == untraced["average_duty_cycle"], protocol
            assert traced["channel_stats"] == untraced["channel_stats"], protocol

    @pytest.mark.parametrize("protocol", ["DTS-SS", "PSM"])
    def test_tracing_failures_does_not_change_results(self, protocol: str) -> None:
        # 30% of the smoke scenario's tree fails mid-run.
        scenario = smoke_scale().with_overrides(
            failure_schedule=FailureSchedule(fraction=0.3, window=(3.0, 9.0))
        )
        queries = RunJob(
            scenario=scenario, protocol=protocol, workload=rate_sweep_workload(2.0), seed=1
        ).resolve_queries()
        trace = TraceRecorder(enabled=True)
        traced = assemble_run(scenario, protocol, queries, 1, trace=trace).execute()
        untraced = assemble_run(scenario, protocol, queries, 1).execute()
        assert trace.filter(category="network.node_failed")  # the failure site really traced
        assert traced[0] == untraced[0]  # RunMetrics equality leaves counters out
        measured = [
            {key: value for key, value in metrics.counters.items() if not key.startswith("run.")}
            for metrics, _ in (traced, untraced)
        ]
        assert measured[0] == measured[1]
        assert traced[1] == untraced[1]

    def test_identical_runs_in_one_process_record_identical_traces(self) -> None:
        # Packet ids restart with every run assembly: without that, the
        # second run's ids continue where the first run's stopped and the
        # payloads differ from the first ``mac.enqueue`` on.
        scenario = smoke_scale()
        queries = golden_tool.resolve_queries(scenario, "DTS-SS", 1)
        payloads = []
        for _ in range(2):
            trace = TraceRecorder(enabled=True)
            assemble_run(scenario, "DTS-SS", queries, 1, trace=trace).execute()
            payloads.append(
                [(record.time, record.category, record.node, record.data) for record in trace]
            )
        assert any("packet_id" in data for _, _, _, data in payloads[0])
        assert payloads[0] == payloads[1]

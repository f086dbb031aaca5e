"""The reprolint determinism checker: per-rule fixtures and the tree gate.

Each REP rule is proven twice: it *fires* on a minimal violating snippet
and it *stays silent* on the sanctioned idiom the rule's docstring names
(sorted set iteration, ``__slots__``, guarded trace emission, copy-on-write
listener rebinding).  The final class asserts the real tree is clean -- the
same gate CI and pre-commit run.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.base import all_checkers
from repro.lint.cli import main as lint_main
from repro.lint.layers import HOT_PATH_MODULES, Layer, layer_of, package_relative
from repro.lint.reporters import render_json
from repro.lint.runner import lint_paths, lint_source

#: Synthetic fixture paths selecting each layer-map regime.
SIM_PATH = "src/repro/core/fixture.py"  # simulation layer, not hot path
HOT_PATH = "src/repro/mac/csma.py"  # simulation layer, hot-path module

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: One REP007 finding, on line 3.
LISTENER_APPEND = """class Table:
    def subscribe(self, listener):
        self._listeners.append(listener)
"""


def codes(source: str, path: str) -> list:
    """All rule codes firing on the dedented ``source`` linted as ``path``."""
    return [f.code for f in lint_source(textwrap.dedent(source), path=path)]


class TestLayerMap:
    def test_simulation_packages(self) -> None:
        assert layer_of("src/repro/sim/engine.py") is Layer.SIMULATION
        assert layer_of("src/repro/core/safe_sleep.py") is Layer.SIMULATION
        assert layer_of(str(REPO_SRC / "net" / "channel.py")) is Layer.SIMULATION

    def test_orchestration_packages(self) -> None:
        assert layer_of("src/repro/orchestrator/executor.py") is Layer.ORCHESTRATION
        assert layer_of("src/repro/obs/history.py") is Layer.ORCHESTRATION
        assert layer_of("src/repro/experiments/runner.py") is Layer.ORCHESTRATION
        assert layer_of("src/repro/cli.py") is Layer.ORCHESTRATION

    def test_unknown_package_is_covered_by_no_rule(self) -> None:
        assert layer_of("somewhere/else.py") is Layer.UNKNOWN

    def test_package_relative_normalization(self) -> None:
        assert package_relative("/abs/path/src/repro/sim/engine.py") == "sim/engine.py"
        assert package_relative("src/repro/mac/csma.py") == "mac/csma.py"

    def test_hot_path_modules_exist_on_disk(self) -> None:
        for relative in sorted(HOT_PATH_MODULES):
            assert (REPO_SRC / relative).is_file(), relative


class TestREP003SetOrder:
    def test_fires_on_set_iteration_feeding_scheduling(self) -> None:
        violating = """
            def notify(sim, nodes):
                pending = set(nodes)
                for node in pending:
                    sim.schedule_in(0.0, node)
        """
        assert codes(violating, SIM_PATH) == ["REP003"]

    def test_fires_on_set_iteration_feeding_deferral(self) -> None:
        violating = """
            def request_checks(sim, schedulers):
                for scheduler in set(schedulers):
                    sim.defer(scheduler.check)
        """
        assert codes(violating, SIM_PATH) == ["REP003"]

    def test_fires_on_set_annotated_parameter_accumulation(self) -> None:
        violating = """
            from typing import Set

            def total(weights, members: Set[int]) -> float:
                acc = 0.0
                for member in members:
                    acc += weights[member]
                return acc
        """
        assert codes(violating, SIM_PATH) == ["REP003"]

    def test_fires_on_sum_over_set_comprehension(self) -> None:
        violating = """
            def total(values):
                return sum(v * 2.0 for v in set(values))
        """
        assert codes(violating, SIM_PATH) == ["REP003"]

    def test_silent_when_sorted(self) -> None:
        sanctioned = """
            def notify(sim, nodes):
                pending = set(nodes)
                for node in sorted(pending):
                    sim.schedule_in(0.0, node)
        """
        assert codes(sanctioned, SIM_PATH) == []

    def test_silent_on_order_insensitive_body(self) -> None:
        # Building membership structures from a set is fine.
        sanctioned = """
            def index(tree, members):
                return {member: tree.parent[member] for member in set(members)}
        """
        assert codes(sanctioned, SIM_PATH) == []


class TestREP004Slots:
    def test_fires_on_hot_path_class_without_slots(self) -> None:
        violating = """
            class Frame:
                def __init__(self):
                    self.size = 0
        """
        assert codes(violating, HOT_PATH) == ["REP004"]

    def test_fires_on_dataclass_without_slots_true(self) -> None:
        violating = """
            from dataclasses import dataclass

            @dataclass
            class Stats:
                sent: int = 0
        """
        assert codes(violating, HOT_PATH) == ["REP004"]

    def test_silent_with_slots_declared(self) -> None:
        sanctioned = """
            from dataclasses import dataclass

            class Frame:
                __slots__ = ("size",)

                def __init__(self):
                    self.size = 0

            @dataclass(slots=True)
            class Stats:
                sent: int = 0
        """
        assert codes(sanctioned, HOT_PATH) == []

    def test_enums_and_exceptions_exempt(self) -> None:
        sanctioned = """
            import enum

            class State(enum.Enum):
                IDLE = "idle"

            class ChannelError(RuntimeError):
                pass
        """
        assert codes(sanctioned, HOT_PATH) == []

    def test_silent_off_the_hot_path(self) -> None:
        cold = """
            class Report:
                def __init__(self):
                    self.rows = []
        """
        assert codes(cold, SIM_PATH) == []


class TestREP006TraceGuard:
    def test_fires_on_unguarded_hot_emit(self) -> None:
        violating = """
            def transition(self, now, old, new):
                self._trace.emit(now, "radio.state", node=1, old=old, new=new)
        """
        assert codes(violating, HOT_PATH) == ["REP006"]

    def test_silent_when_guarded_directly(self) -> None:
        sanctioned = """
            def transition(self, now, old, new):
                trace = self._trace
                if trace.enabled:
                    trace.emit(now, "radio.state", node=1, old=old, new=new)
        """
        assert codes(sanctioned, HOT_PATH) == []

    def test_silent_when_guarded_through_hoisted_flag(self) -> None:
        # The channel's pattern: hoist the flag once per burst.
        sanctioned = """
            def burst(self, sim, receivers):
                trace = sim.trace
                tracing = trace.enabled
                for receiver in receivers:
                    if tracing:
                        trace.emit(sim.now, "channel.delivery", node=receiver)
        """
        assert codes(sanctioned, HOT_PATH) == []

    def test_cold_sites_may_emit_unconditionally(self) -> None:
        cold = """
            def setup_failure(self, sim):
                sim.trace.emit(sim.now, "node.failed", node=3)
        """
        assert codes(cold, SIM_PATH) == []


class TestREP007ListenerCopyOnWrite:
    def test_fires_on_in_place_append(self) -> None:
        violating = """
            class Table:
                def subscribe(self, listener):
                    self._listeners.append(listener)
        """
        assert codes(violating, SIM_PATH) == ["REP007"]

    def test_fires_on_remove_and_augmented_add(self) -> None:
        violating = """
            class Recorder:
                def unsubscribe(self, listener):
                    self._listeners.remove(listener)

                def add_sink(self, sink):
                    self._sinks += [sink]
        """
        assert sorted(codes(violating, SIM_PATH)) == ["REP007", "REP007"]

    def test_silent_on_copy_on_write_rebind(self) -> None:
        sanctioned = """
            class Table:
                def subscribe(self, listener):
                    self._listeners = self._listeners + [listener]

                def unsubscribe(self, listener):
                    self._listeners = [x for x in self._listeners if x != listener]
        """
        assert codes(sanctioned, SIM_PATH) == []

    def test_silent_on_non_listener_lists(self) -> None:
        sanctioned = """
            class Buffer:
                def push(self, record):
                    self._records.append(record)
        """
        assert codes(sanctioned, SIM_PATH) == []


class TestRunnerAndReporters:
    def test_every_rule_documents_its_rationale(self) -> None:
        for checker in all_checkers():
            assert checker.code.startswith("REP")
            assert checker.name, checker.code
            rationale = checker.rationale()
            assert "**Invariant.**" in rationale, checker.code
            assert "**Sanctioned idiom.**" in rationale, checker.code

    def test_syntax_error_reports_rep000(self) -> None:
        findings = lint_source("def broken(:\n", path=SIM_PATH)
        assert [f.code for f in findings] == ["REP000"]

    def test_json_report_is_deterministic_and_parseable(self, tmp_path) -> None:
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(LISTENER_APPEND)
        result = lint_paths([bad.parent])
        payload = json.loads(render_json(result))
        assert payload["tool"] == "reprolint"
        assert payload["clean"] is False
        assert payload["counts"] == {"REP007": 1}
        assert payload["findings"][0]["line"] == 3
        assert render_json(result) == render_json(lint_paths([bad.parent]))

    def test_select_limits_rules(self, tmp_path) -> None:
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            LISTENER_APPEND
            + "\n    def notify(self, sim, nodes):\n"
            + "        for node in set(nodes):\n"
            + "            sim.schedule_in(0.0, node)\n"
        )
        assert sorted(f.code for f in lint_paths([bad]).findings) == ["REP003", "REP007"]
        only_listeners = lint_paths([bad], select=["REP007"])
        assert [f.code for f in only_listeners.findings] == ["REP007"]


class TestCli:
    def test_cli_clean_run_exits_zero(self, tmp_path) -> None:
        good = tmp_path / "src" / "repro" / "sim" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("X = 1\n")
        out = io.StringIO()
        assert lint_main([str(good)], out=out) == 0
        assert "clean" in out.getvalue()

    def test_cli_findings_exit_one_with_json(self, tmp_path) -> None:
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(LISTENER_APPEND)
        out = io.StringIO()
        assert lint_main(["--format", "json", str(bad)], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["counts"] == {"REP007": 1}

    def test_cli_missing_path_exits_two(self) -> None:
        assert lint_main(["/no/such/path.py"], out=io.StringIO()) == 2

    def test_cli_list_rules(self) -> None:
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        listed = [line.split()[0] for line in out.getvalue().splitlines() if line[:3] == "REP"]
        assert listed == ["REP003", "REP004", "REP006", "REP007"]

    def test_repro_cli_integration(self) -> None:
        from repro.cli import main as repro_main

        out = io.StringIO()
        assert repro_main(["lint", str(REPO_SRC / "lint")], out=out) == 0


class TestCache:
    def test_editing_a_rule_discards_its_cached_findings(self, tmp_path) -> None:
        # A private copy of the lint package, so one of its rules can be edited.
        package = tmp_path / "lib" / "repro"
        shutil.copytree(REPO_SRC / "lint", package / "lint")
        (package / "__init__.py").write_text("")
        target = tmp_path / "src" / "repro" / "mac" / "csma.py"
        target.parent.mkdir(parents=True)
        target.write_text("class Frame:\n    __slots__ = ()\n")
        cache = tmp_path / "cache.json"

        def cached_counts() -> dict:
            argv = ["--format", "json", "--cache-path", str(cache), str(target)]
            env = {**os.environ, "PYTHONPATH": str(package.parent)}
            run = subprocess.run(
                [sys.executable, "-m", "repro.lint", *argv], capture_output=True, env=env
            )
            return json.loads(run.stdout)["counts"]

        assert cached_counts() == {}
        # REP004 now fires on every hot-path class, slots or not.
        rule = package / "lint" / "rules" / "slots.py"
        rule.write_text(rule.read_text().replace("elif not class_declares_slots(node):", "else:"))
        assert cached_counts() == {"REP004": 1}


class TestTreeIsClean:
    """The gate itself: the shipped tree must lint clean."""

    def test_src_repro_lints_clean(self) -> None:
        result = lint_paths([REPO_SRC])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.clean, f"reprolint findings:\n{rendered}"
        assert result.files_checked > 90

"""Tests for the runtime determinism sanitizer.

Two families: surgical lifecycle tests (install/arm/trip/uninstall, the
guarded hot-site sets, the environment flag), and the end-to-end
guarantees the sanitizer exists for -- a planted wall-clock read inside a
running simulation raises with the offending stack, while a sanitized
smoke-scale run of both protocol families completes clean with metrics
bit-identical to an unsanitized run.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.experiments.config import smoke_scale
from repro.experiments.runner import run_single
from repro.experiments.scenarios import rate_sweep_workload
from repro.query.service import _PeriodWatermark
from repro.query.workload import generate_queries
from repro.sanitizer.runtime import (
    ENV_FLAG,
    DeterminismViolation,
    active,
    enabled_by_env,
    install,
    maybe_install_from_env,
    sanitized,
    uninstall,
)
from repro.sanitizer.sets import GuardedSet
from repro.sim.engine import Simulator


class TestLifecycle:
    def test_install_patches_and_uninstall_restores(self) -> None:
        original_time = time.time
        original_random = random.random
        original_getenv = os.getenv
        original_getitem = type(os.environ).__getitem__
        sanitizer = install()
        try:
            assert sanitizer.installed
            assert time.time is not original_time
            assert random.random is not original_random
            # Disarmed tripwires forward untouched.
            assert isinstance(time.time(), float)
            assert 0.0 <= random.random() < 1.0
        finally:
            uninstall()
        assert time.time is original_time
        assert random.random is original_random
        assert os.getenv is original_getenv
        assert type(os.environ).__getitem__ is original_getitem
        assert not sanitizer.installed
        assert active() is None

    def test_install_is_idempotent(self) -> None:
        first = install()
        try:
            assert install() is first
        finally:
            uninstall()

    def test_engine_hook_is_set_and_cleared(self) -> None:
        assert Simulator.run_watcher is None
        with sanitized() as sanitizer:
            assert Simulator.run_watcher is sanitizer
        assert Simulator.run_watcher is None

    def test_env_flag_controls_maybe_install(self, monkeypatch) -> None:
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not enabled_by_env()
        assert maybe_install_from_env() is None
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not enabled_by_env()
        monkeypatch.setenv(ENV_FLAG, "1")
        assert enabled_by_env()
        try:
            sanitizer = maybe_install_from_env()
            assert sanitizer is not None and sanitizer.installed
            assert active() is sanitizer
            # A second call in the same process reuses the installation.
            assert maybe_install_from_env() is sanitizer
        finally:
            uninstall()

    def test_fixture_installs_for_the_test_body(self, determinism_sanitizer) -> None:
        assert determinism_sanitizer.installed
        assert active() is determinism_sanitizer
        assert Simulator.run_watcher is determinism_sanitizer


class TestTripwires:
    def test_planted_wall_clock_read_is_caught_with_stack(self) -> None:
        with sanitized() as sanitizer:
            sim = Simulator(seed=1)

            def evil() -> float:
                return time.time()

            sim.schedule_at(1.0, evil)
            with pytest.raises(DeterminismViolation) as excinfo:
                sim.run(until=2.0)
        violation = excinfo.value
        assert violation.site == "time.time"
        assert "in evil" in violation.stack  # the planted frame, not ours
        assert "time.time" in str(violation)
        assert [hit.site for hit in sanitizer.hits] == ["time.time"]

    def test_global_random_is_caught(self) -> None:
        with sanitized():
            sim = Simulator(seed=1)
            sim.schedule_at(0.5, random.random)
            with pytest.raises(DeterminismViolation) as excinfo:
                sim.run()
            assert excinfo.value.site == "random.random"

    def test_environment_read_is_caught(self) -> None:
        with sanitized():
            sim = Simulator(seed=1)
            sim.schedule_at(0.5, lambda: os.environ.get("HOME"))
            with pytest.raises(DeterminismViolation) as excinfo:
                sim.run()
            assert excinfo.value.site == "os.environ[...]"

    def test_reads_outside_the_armed_window_pass_through(self) -> None:
        with sanitized():
            # Orchestration-side reads (before/after run()) stay legal.
            assert isinstance(time.perf_counter(), float)
            os.environ.get("HOME")
            sim = Simulator(seed=1)
            sim.schedule_at(0.5, lambda: None)
            sim.run()
            assert isinstance(time.perf_counter(), float)


class TestGuardedSet:
    def test_c_level_operations_bypass_the_guard(self) -> None:
        with sanitized() as sanitizer:
            guarded = GuardedSet({1, 2, 3}, site="probe")
            sanitizer.arm()
            try:
                assert 2 in guarded
                guarded.add(4)
                guarded.discard(4)
                difference = guarded - {1}
                # Difference hands back a plain set: iterating the *result*
                # is the sanctioned idiom (fresh set, sorted before use).
                assert type(difference) is set
                assert difference == {2, 3}
            finally:
                sanitizer.disarm()

    def test_python_iteration_trips_only_while_armed(self) -> None:
        with sanitized() as sanitizer:
            guarded = GuardedSet({1, 2, 3}, site="probe")
            assert sorted(guarded) == [1, 2, 3]  # disarmed: fine
            sanitizer.arm()
            try:
                with pytest.raises(DeterminismViolation) as excinfo:
                    list(guarded)
            finally:
                sanitizer.disarm()
            assert excinfo.value.site == "set-iteration (__iter__) at probe"

    def test_hot_site_classes_get_guarded_sets(self) -> None:
        with sanitized():
            watermark = _PeriodWatermark()
            assert isinstance(watermark.sparse, GuardedSet)
            assert watermark.sparse.site == "repro.query.service._PeriodWatermark.sparse"
        # After uninstall new instances carry plain sets again.
        assert not isinstance(_PeriodWatermark().sparse, GuardedSet)


class TestSanitizedRuns:
    @pytest.mark.parametrize("protocol", ["DTS-SS", "PSM"])
    def test_smoke_run_is_clean_and_bit_identical(self, protocol: str) -> None:
        scenario = smoke_scale()
        queries = generate_queries(rate_sweep_workload(2.0), seed=1)
        baseline, baseline_extras = run_single(scenario, protocol, queries, seed=7)
        with sanitized() as sanitizer:
            guarded, guarded_extras = run_single(scenario, protocol, queries, seed=7)
            assert sanitizer.hits == []
        # RunMetrics equality excludes the wall-clock counter snapshot, so
        # this is the run-twice bitwise-identity contract under tripwires.
        assert guarded == baseline
        assert guarded_extras == baseline_extras

"""Shared fixtures for the figure-reproduction benchmark suite.

Each benchmark regenerates one of the paper's figures: it runs the
corresponding sweep on the reduced entry of
:data:`repro.experiments.scenarios.SCALES` (the :func:`scale` fixture),
prints the series as a table, and asserts the qualitative shape the paper
reports; paper-scale figures come from ``repro --scale paper figure figN``.
The figure tests time nothing: sweep timings come from ``perfbench/``
(its ``fig3_reduced_cli`` workload times the cold parallel sweep and the
warm replay).  The hot-path benchmark records its events/sec cells via
:func:`record_hotpath_bench`.

The rate-sweep figure benchmarks (Figures 3, 5, 6, 8 and the headline
claims) share one session-scoped result store, :func:`sweep_store`: their
sweeps overlap (the headline test re-runs Figure 3's and Figure 6's jobs),
and a job one of them ran is replayed by the next instead of re-simulated.
A warm replay is bit-identical to the run that stored it.

The committed ``BENCH_hotpath.json`` snapshot at the repository root is
rewritten only on request (``REPRO_BENCH_WRITE=1``), so an ordinary test
run leaves the working tree clean.  It is written atomically (tempfile +
``os.replace``), so an interrupted benchmark run cannot corrupt it.  Setting
``REPRO_PERF_HISTORY`` to a file path appends the recorded benchmark to
that append-only perf-history JSONL (see :mod:`repro.obs.history`) --
opt-in via the environment so casual local benchmark runs do not grow the
committed history.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro.experiments.scenarios import SCALES, Scale
from repro.obs.history import PerfHistory, atomic_write_text, entry_from_bench
from repro.orchestrator.progress import NullProgress
from repro.orchestrator.store import ResultStore

#: Environment variable selecting the perf-history file to append to.
PERF_HISTORY_ENV_VAR = "REPRO_PERF_HISTORY"

#: Environment variable that, set to ``1``, rewrites the ``BENCH_hotpath.json``
#: snapshot at the repository root.
BENCH_WRITE_ENV_VAR = "REPRO_BENCH_WRITE"

#: Where the hot-path benchmark numbers land (repository root).
HOTPATH_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: Filled by ``test_hotpath_bench.py`` during the session; written on exit.
_hotpath_bench: dict = {}


def record_hotpath_bench(data: dict) -> None:
    """Stash the hot-path benchmark numbers for session-end emission."""
    _hotpath_bench.update(data)


@pytest.fixture()
def hotpath_bench_recorder():
    """The hot-path recorder callable, exposed as a fixture."""
    return record_hotpath_bench


def _append_history(bench: str, results: dict) -> None:
    """Append one history entry when ``REPRO_PERF_HISTORY`` requests it."""
    history_path = os.environ.get(PERF_HISTORY_ENV_VAR, "").strip()
    if not history_path:
        return
    try:
        history = PerfHistory(history_path)
        entry = entry_from_bench(bench, results)
        history.append(entry)
        print(f"perf history: recorded {bench} entry {entry.label()} -> {history.path}")
    except Exception as error:  # history persistence is best-effort
        # Never fail the benchmark session over history bookkeeping.
        print(f"perf history: failed to record {bench} entry: {error}", file=sys.stderr)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Emit the hot-path benchmark artifacts if that benchmark ran."""
    if not _hotpath_bench:
        return
    if os.environ.get(BENCH_WRITE_ENV_VAR, "").strip() == "1":
        text = json.dumps(_hotpath_bench, indent=2, sort_keys=True) + "\n"
        atomic_write_text(HOTPATH_BENCH_PATH, text)
    _append_history("hotpath", _hotpath_bench)


@pytest.fixture(scope="session")
def scale() -> Scale:
    """The scale every figure benchmark runs: its scenario and sweep grid."""
    return SCALES["reduced"]


@pytest.fixture(scope="session")
def sweep_store(tmp_path_factory) -> ResultStore:
    """The result store shared by the rate-sweep figure benchmarks."""
    return ResultStore(tmp_path_factory.mktemp("sweep-store"))


class StoreUse(NullProgress):
    """Counts one test's executed and replayed jobs against the shared store."""

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.stored_before = len(store)
        self.executed = 0
        self.cached = 0

    def job_done(self, *, cached: bool, label: str = "") -> None:
        if cached:
            self.cached += 1
        else:
            self.executed += 1

    def assert_stored_jobs_replayed(self) -> None:
        """Only jobs the store lacked ran; each one added exactly one record."""
        print(f"sweep store: {self.executed} executed, {self.cached} replayed")
        assert self.executed == len(self.store) - self.stored_before


@pytest.fixture()
def store_use(sweep_store) -> StoreUse:
    """A progress reporter counting this test's use of :func:`sweep_store`."""
    return StoreUse(sweep_store)


def print_figure(figure) -> None:
    """Print a figure table so it appears in the benchmark output (-s)."""
    print()
    print(figure.to_table())

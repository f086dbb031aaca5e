"""Append-only perf-history time-series for benchmark results.

``BENCH_hotpath.json`` / ``BENCH_orchestrator.json`` are point snapshots:
each benchmark run overwrites the previous one, so the repository only ever
knows its *latest* performance, not its trajectory.  The history store fixes
that: every recorded benchmark run appends one JSONL entry keyed by commit
and host fingerprint, and entries are never rewritten, so the file is a
time-series that survives across PRs (and, in CI, across workflow runs via
the downloaded/re-uploaded history artifact).

An entry is deliberately small -- the flattened throughput cells, the
profiled ``layer_breakdown`` fractions, and identifying metadata -- rather
than the whole raw benchmark JSON, so years of history stay cheap to commit.

Writes are atomic (tempfile + :func:`os.replace`): an interrupted benchmark
run can never leave a half-written history line or a truncated
``BENCH_*.json`` behind (the same helper writes those snapshots too).

Comparisons only make sense on comparable hardware, which is why entries
carry a host fingerprint; the regression check in :mod:`repro.obs.report`
restricts itself to same-fingerprint samples whenever enough exist.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Bump when the entry format changes; mismatched entries are skipped on
#: load (never deleted -- the file is append-only).
HISTORY_SCHEMA_VERSION = 1

#: Default history file name (committed at the repository root).
HISTORY_FILENAME = "perf_history.jsonl"

#: Environment override for the recorded commit id (used by CI, where the
#: checkout may be a detached merge ref, and by tests).
COMMIT_ENV_VAR = "REPRO_COMMIT"


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically (tempfile + ``os.replace``).

    The temp file lives in the destination directory so the replace is a
    same-filesystem rename; a crash mid-write leaves the old file intact.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def current_commit(repo_dir: Union[None, str, Path] = None) -> str:
    """The short commit id to key history entries by.

    ``REPRO_COMMIT`` (if set) wins, then ``git rev-parse --short HEAD`` in
    ``repo_dir`` (default: the current directory); falls back to
    ``"unknown"`` outside a git checkout.
    """
    env_commit = os.environ.get(COMMIT_ENV_VAR, "").strip()
    if env_commit:
        return env_commit
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=None if repo_dir is None else str(repo_dir),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else "unknown"


def host_fingerprint() -> Dict[str, Any]:
    """Identify the measuring host: platform facts plus a stable digest.

    The digest covers everything that makes throughput numbers comparable
    (OS, architecture, Python major.minor, CPU count); two entries with the
    same ``fingerprint`` were measured on interchangeable hosts.
    """
    python_series = ".".join(platform.python_version_tuple()[:2])
    facts = {
        "system": platform.system(),
        "machine": platform.machine(),
        "python": python_series,
        "cpu_count": os.cpu_count() or 1,
    }
    canonical = json.dumps(facts, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return {"fingerprint": digest, **facts, "python_full": platform.python_version()}


@dataclass
class PerfEntry:
    """One recorded benchmark run."""

    bench: str
    commit: str
    host: Dict[str, Any]
    #: Flattened cell name -> measured value (e.g. ``"kernel"`` ->
    #: events/sec for the hotpath bench, ``"serial_seconds"`` -> wall
    #: seconds for the orchestrator bench).
    cells: Dict[str, float]
    #: ``True`` when larger cell values are better (events/sec); ``False``
    #: for wall-clock cells.  Drives the direction of the regression check.
    higher_is_better: bool = True
    unit: str = "events_per_sec"
    #: Profiled per-layer self-time fractions (hotpath bench only).
    layer_breakdown: Optional[Dict[str, float]] = None
    recorded_unix: float = field(default_factory=time.time)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """The measuring host's fingerprint digest."""
        return str(self.host.get("fingerprint", ""))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (one history line)."""
        data: Dict[str, Any] = {
            "schema": HISTORY_SCHEMA_VERSION,
            "bench": self.bench,
            "commit": self.commit,
            "recorded_unix": self.recorded_unix,
            "host": dict(self.host),
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "cells": dict(self.cells),
        }
        if self.layer_breakdown is not None:
            data["layer_breakdown"] = dict(self.layer_breakdown)
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            bench=data["bench"],
            commit=data["commit"],
            host=dict(data.get("host", {})),
            cells={str(k): float(v) for k, v in data.get("cells", {}).items()},
            higher_is_better=bool(data.get("higher_is_better", True)),
            unit=str(data.get("unit", "events_per_sec")),
            layer_breakdown=(
                None
                if data.get("layer_breakdown") is None
                else {str(k): float(v) for k, v in data["layer_breakdown"].items()}
            ),
            recorded_unix=float(data.get("recorded_unix", 0.0)),
            meta=dict(data.get("meta", {})),
        )

    def label(self) -> str:
        """Short human-readable identity for tables and log lines."""
        return f"{self.commit}@{self.fingerprint or '?'}"


def _flatten_hotpath_cells(results: Dict[str, Any]) -> Dict[str, float]:
    """Every ``events_per_sec`` cell in a ``BENCH_hotpath.json`` payload.

    Cells are named by their JSON path (``"kernel"``,
    ``"densest_density/DTS-SS"``, ``"densest_density/parallel"``, ...), which
    matches the ``PRE_PR_BASELINES`` keys the benchmark already uses.
    """
    cells: Dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if not isinstance(node, dict):
            return
        value = node.get("events_per_sec")
        if isinstance(value, (int, float)):
            cells[path] = float(value)
        for key, child in node.items():
            if isinstance(child, dict):
                walk(child, f"{path}/{key}" if path else key)

    for key, child in results.items():
        walk(child, key)
    return cells


def entry_from_bench(
    bench: str,
    results: Dict[str, Any],
    *,
    commit: Optional[str] = None,
    host: Optional[Dict[str, Any]] = None,
) -> PerfEntry:
    """Build a history entry from one raw benchmark payload.

    ``bench`` is ``"hotpath"`` (cells = every events/sec measurement plus
    the layer breakdown) or ``"orchestrator"`` (cells = the wall-clock
    seconds of the serial / parallel / cold-store / warm-store sweeps).
    """
    commit = commit if commit is not None else current_commit()
    host = host if host is not None else host_fingerprint()
    if bench == "hotpath":
        breakdown = results.get("layer_breakdown") or {}
        fractions = breakdown.get("fractions") or None
        return PerfEntry(
            bench=bench,
            commit=commit,
            host=host,
            cells=_flatten_hotpath_cells(results),
            higher_is_better=True,
            unit="events_per_sec",
            layer_breakdown=fractions,
            meta={
                "quick_mode": bool(results.get("quick_mode", False)),
            },
        )
    if bench == "orchestrator":
        cells = {
            key: float(results[key])
            for key in (
                "serial_seconds",
                "parallel_seconds",
                "cold_store_seconds",
                "warm_store_seconds",
            )
            if isinstance(results.get(key), (int, float))
        }
        return PerfEntry(
            bench=bench,
            commit=commit,
            host=host,
            cells=cells,
            higher_is_better=False,
            unit="seconds",
            layer_breakdown=None,
            meta={
                "sweep": results.get("sweep", {}),
                "speedup": results.get("speedup"),
                "parallel_workers": results.get("parallel_workers"),
            },
        )
    raise ValueError(f"unknown bench {bench!r}; expected 'hotpath' or 'orchestrator'")


class PerfHistory:
    """The append-only JSONL time-series of :class:`PerfEntry` records."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def entries(
        self, bench: Optional[str] = None, fingerprint: Optional[str] = None
    ) -> List[PerfEntry]:
        """All readable entries, in file (= recording) order.

        Corrupt lines (an interrupted append predating atomic writes) and
        entries from other schema versions are skipped, never deleted.
        ``bench`` / ``fingerprint`` filter the result.
        """
        if not self.path.exists():
            return []
        entries: List[PerfEntry] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if data.get("schema") != HISTORY_SCHEMA_VERSION:
                    continue
                try:
                    entry = PerfEntry.from_dict(data)
                except (KeyError, TypeError, ValueError):
                    continue
                if bench is not None and entry.bench != bench:
                    continue
                if fingerprint is not None and entry.fingerprint != fingerprint:
                    continue
                entries.append(entry)
        return entries

    def append(self, entry: PerfEntry) -> None:
        """Append ``entry`` atomically (the whole file is rewritten via a
        tempfile + ``os.replace``, so a crash leaves the previous history
        intact rather than a truncated line)."""
        line = json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":"))
        existing = ""
        if self.path.exists():
            existing = self.path.read_text(encoding="utf-8")
            if existing and not existing.endswith("\n"):
                existing += "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, existing + line + "\n")

    def __len__(self) -> int:
        return len(self.entries())

    def resolve(self, ref: str, bench: Optional[str] = None) -> PerfEntry:
        """Find one entry by reference.

        ``ref`` is either a (prefix of a) commit id -- the *latest* entry
        for that commit wins -- or a negative index into recording order
        (``"-1"`` = most recent, ``"-2"`` = one before, ...).
        """
        entries = self.entries(bench=bench)
        if not entries:
            raise LookupError(f"perf history {self.path} has no entries")
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            try:
                return entries[index]
            except IndexError:
                raise LookupError(
                    f"perf history has only {len(entries)} entries (asked for {ref})"
                ) from None
        matches = [entry for entry in entries if entry.commit.startswith(ref)]
        if not matches:
            raise LookupError(f"no perf-history entry for commit {ref!r}")
        return matches[-1]

    def cell_samples(
        self,
        cell: str,
        *,
        bench: str,
        fingerprint: Optional[str] = None,
    ) -> List[Tuple[PerfEntry, float]]:
        """Every recorded sample of ``cell``, oldest first."""
        return [
            (entry, entry.cells[cell])
            for entry in self.entries(bench=bench, fingerprint=fingerprint)
            if cell in entry.cells
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfHistory({str(self.path)!r})"

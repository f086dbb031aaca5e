"""``repro perf`` -- the perf-history command group.

Wired into :mod:`repro.cli` as the ``perf`` subcommand::

    python -m repro.cli perf record --bench hotpath --from-json BENCH_hotpath.json
    python -m repro.cli perf report --bench hotpath
    python -m repro.cli perf diff -- -2 -1
    python -m repro.cli perf check --bench hotpath --from-json BENCH_hotpath.json

``record`` appends one history entry from a raw ``BENCH_*.json`` payload;
``report`` renders the speedup trajectory as a figure table; ``diff``
profile-compares two recorded entries (naming the ``layer_breakdown`` layer
that moved); ``check`` gates a fresh benchmark payload against the recorded
history and exits non-zero on a regression -- the CI entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, TextIO

from .history import (
    HISTORY_FILENAME,
    PerfHistory,
    entry_from_bench,
    host_fingerprint,
)
from .report import (
    DEFAULT_CONFIDENCE,
    FALLBACK_FLOOR,
    MIN_STATISTICAL_SAMPLES,
    check_regression,
    diff_breakdown,
    trajectory_figure,
)

#: bench name -> whether larger cell values are better.
_BENCH_DIRECTION: Dict[str, bool] = {"hotpath": True, "orchestrator": False}


def configure_perf_parser(perf: argparse.ArgumentParser) -> None:
    """Add the ``perf`` command group's arguments to the CLI's ``perf`` parser."""
    perf.add_argument(
        "--history",
        default=HISTORY_FILENAME,
        metavar="FILE",
        help=f"perf-history JSONL file (default: ./{HISTORY_FILENAME})",
    )
    perf.add_argument(
        "--bench",
        choices=sorted(_BENCH_DIRECTION),
        default="hotpath",
        help="which benchmark's entries to operate on",
    )
    perf.set_defaults(func=run_perf)
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    record = perf_sub.add_parser(
        "record", help="append one history entry from a raw BENCH_*.json payload"
    )
    record.add_argument(
        "--from-json",
        required=True,
        metavar="FILE",
        help="benchmark payload to record (BENCH_hotpath.json / BENCH_orchestrator.json)",
    )
    record.add_argument(
        "--commit", default=None, help="commit id to record (default: REPRO_COMMIT or git HEAD)"
    )

    report = perf_sub.add_parser(
        "report", help="render the recorded trajectory through the figures machinery"
    )
    report.add_argument(
        "--cells", nargs="+", default=None, help="restrict to these cells (default: all)"
    )
    report.add_argument(
        "--raw",
        action="store_true",
        help="plot raw values instead of normalizing to the first recorded sample",
    )
    report.add_argument(
        "--same-host",
        action="store_true",
        help="only samples matching this machine's host fingerprint",
    )

    diff = perf_sub.add_parser(
        "diff", help="profile-diff two recorded entries (names the layer that moved)"
    )
    diff.add_argument("ref_a", help="commit prefix or negative index (e.g. -2)")
    diff.add_argument("ref_b", help="commit prefix or negative index (e.g. -1)")

    check = perf_sub.add_parser(
        "check", help="gate a fresh benchmark payload against the recorded history"
    )
    check.add_argument(
        "--from-json",
        required=True,
        metavar="FILE",
        help="the freshly measured benchmark payload to gate",
    )
    check.add_argument(
        "--confidence",
        type=float,
        default=DEFAULT_CONFIDENCE,
        help="confidence level of the statistical bound (default: %(default)s)",
    )
    check.add_argument(
        "--min-samples",
        type=int,
        default=MIN_STATISTICAL_SAMPLES,
        help="recorded samples required before the statistical bound applies "
        "(fewer -> multiplicative floor fallback; default: %(default)s)",
    )
    check.add_argument(
        "--floor",
        type=float,
        default=FALLBACK_FLOOR,
        help="fallback floor factor vs the historical mean (default: %(default)s, the old 2x gate)",
    )
    check.add_argument(
        "--any-host",
        action="store_true",
        help="compare against samples from every host, not just this machine's fingerprint",
    )


def _load_payload(path_str: str) -> Dict:
    path = Path(path_str)
    try:
        payload: Dict = json.loads(path.read_text(encoding="utf-8"))
        return payload
    except FileNotFoundError:
        raise SystemExit(f"error: benchmark payload {path} does not exist") from None
    except json.JSONDecodeError as error:
        raise SystemExit(f"error: benchmark payload {path} is not valid JSON: {error}") from None


def _run_record(args: argparse.Namespace, history: PerfHistory, out: TextIO) -> int:
    payload = _load_payload(args.from_json)
    entry = entry_from_bench(args.bench, payload, commit=args.commit)
    history.append(entry)
    print(
        f"recorded {args.bench} entry {entry.label()} "
        f"({len(entry.cells)} cells) -> {history.path}",
        file=out,
    )
    return 0


def _run_report(args: argparse.Namespace, history: PerfHistory, out: TextIO) -> int:
    fingerprint = host_fingerprint()["fingerprint"] if args.same_host else None
    try:
        figure = trajectory_figure(
            history,
            bench=args.bench,
            cells=args.cells,
            fingerprint=fingerprint,
            normalize=not args.raw,
        )
    except LookupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    entries = history.entries(bench=args.bench, fingerprint=fingerprint)
    print(figure.to_table(), file=out)
    print("  samples:", file=out)
    for index, entry in enumerate(entries, start=1):
        host = entry.fingerprint or "?"
        print(f"    {index}: {entry.commit} on host {host}", file=out)
    return 0


def _run_diff(args: argparse.Namespace, history: PerfHistory, out: TextIO) -> int:
    try:
        entry_a = history.resolve(args.ref_a, bench=args.bench)
        entry_b = history.resolve(args.ref_b, bench=args.bench)
    except LookupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = diff_breakdown(entry_a, entry_b)
    print(f"# perf diff ({args.bench}): {diff['a']} -> {diff['b']}", file=out)
    if diff["layers"]:
        print("  layer_breakdown (fraction of profiled self-time):", file=out)
        for layer, row in diff["layers"].items():
            marker = "  <-- moved most" if layer == diff["moved_layer"] else ""
            print(
                f"    {layer:10s} {row['a']:6.1%} -> {row['b']:6.1%} "
                f"({row['delta']:+.1%}){marker}",
                file=out,
            )
    else:
        print("  (no layer_breakdown recorded on one or both entries)", file=out)
    if diff["cells"]:
        print("  cells:", file=out)
        for cell, row in diff["cells"].items():
            print(
                f"    {cell:28s} {row['a']:12.4g} -> {row['b']:12.4g} "
                f"(x{row['ratio']:.3f})",
                file=out,
            )
    return 0


def _run_check(args: argparse.Namespace, history: PerfHistory, out: TextIO) -> int:
    payload = _load_payload(args.from_json)
    entry = entry_from_bench(args.bench, payload)
    fingerprint: Optional[str] = None if args.any_host else entry.fingerprint
    report = check_regression(
        history,
        entry.cells,
        bench=args.bench,
        higher_is_better=_BENCH_DIRECTION[args.bench],
        fingerprint=fingerprint,
        confidence=args.confidence,
        min_samples=args.min_samples,
        floor=args.floor,
        # The CI flow appends the fresh sample before gating; never let the
        # measurement under test vouch for itself in the baseline.
        exclude_commit=entry.commit,
    )
    statistical = sum(1 for f in report.findings if f.method == "statistical")
    floor = sum(1 for f in report.findings if f.method == "floor")
    unchecked = sum(1 for f in report.findings if f.method == "no-history")
    print(
        f"# perf check ({args.bench}): {len(report.findings)} cells "
        f"({statistical} statistical, {floor} floor-fallback, {unchecked} unchecked)",
        file=out,
    )
    for finding in report.findings:
        status = "REGRESSION" if finding.regressed else "ok"
        print(f"  [{status:10s}] {finding.message}", file=out)
    if not report.ok:
        names = ", ".join(finding.cell for finding in report.regressions)
        print(f"perf check FAILED: regression in {names}", file=out)
        return 1
    print("perf check passed", file=out)
    return 0


def run_perf(args: argparse.Namespace, out: TextIO) -> int:
    """Dispatch an already-parsed ``perf`` invocation; returns an exit code."""
    history = PerfHistory(args.history)
    if args.perf_command == "record":
        return _run_record(args, history, out)
    if args.perf_command == "report":
        return _run_report(args, history, out)
    if args.perf_command == "diff":
        return _run_diff(args, history, out)
    if args.perf_command == "check":
        return _run_check(args, history, out)
    raise SystemExit(f"unknown perf command {args.perf_command!r}")  # pragma: no cover

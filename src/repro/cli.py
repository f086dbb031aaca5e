"""Command-line interface for the ESSAT reproduction.

Exposes the experiment harness without writing any Python:

* ``python -m repro.cli figure fig3`` regenerates one of the paper's figures
  and prints the series as a table,
* ``python -m repro.cli compare --base-rate 2`` runs every protocol on one
  workload and prints a duty-cycle / latency / lifetime comparison (each
  replication's lifetime is projected on its own routing tree; the table
  shows their mean),
* ``python -m repro.cli list`` shows the available figures and protocols,
* ``python -m repro.cli perf record|report|diff|check`` works with the
  benchmark perf history (see :mod:`repro.obs.perfcli`).

The ``--scale`` option selects one entry of
:data:`repro.experiments.scenarios.SCALES`: a scenario and the sweep grid
every figure runs on it (``smoke`` for seconds-long sanity runs,
``reduced`` for the default benchmark scale, ``paper`` for the full
80-node, 200 s, 5-replication configuration on the paper's grids).

Sweeps run through :mod:`repro.orchestrator`: ``--jobs N`` executes the
sweep on ``N`` worker processes (bit-identical results), ``--cache-dir DIR``
memoises finished runs so re-invocations and interrupted sweeps reuse them,
and ``--progress`` prints per-job progress with an ETA to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .experiments.config import ScenarioConfig
from .experiments.figures import (
    dts_overhead_vs_rate,
    figure2_deadline_sweep,
    figure3_duty_cycle_vs_rate,
    figure4_duty_cycle_vs_queries,
    figure5_duty_cycle_by_rank,
    figure6_latency_vs_rate,
    figure7_latency_vs_queries,
    figure8_sleep_interval_histogram,
    figure9_break_even_time,
    headline_claims,
)
from .experiments.lifetime import estimate_lifetime
from .experiments.runner import ALL_PROTOCOLS, build_scenario_topology
from .experiments.scenarios import SCALES, Scale, rate_sweep_workload
from .experiments.tables import FigureResult, comparison_table
from .orchestrator.api import ExperimentSpec, run_sweep
from .routing.tree import build_routing_tree

#: Figure name -> (description, generator, grid keyword).  The grid keyword
#: names both the generator's sweep argument and the :class:`Scale` field
#: that fills it; ``None`` means the figure sweeps no scale grid.
FIGURES: Dict[str, Tuple[str, Callable[..., FigureResult], Optional[str]]] = {
    "fig2": (
        "STS-SS duty cycle and latency vs query deadline",
        figure2_deadline_sweep,
        "deadlines",
    ),
    "fig3": ("average duty cycle vs base rate", figure3_duty_cycle_vs_rate, "rates"),
    "fig4": ("average duty cycle vs queries per class", figure4_duty_cycle_vs_queries, "counts"),
    "fig5": ("duty cycle distribution over node ranks", figure5_duty_cycle_by_rank, None),
    "fig6": ("query latency vs base rate", figure6_latency_vs_rate, "rates"),
    "fig7": ("query latency vs queries per class", figure7_latency_vs_queries, "counts"),
    "fig8": ("sleep-interval histogram (T_BE = 0)", figure8_sleep_interval_histogram, None),
    "fig9": (
        "duty cycle vs base rate for several break-even times",
        figure9_break_even_time,
        "rates",
    ),
    "overhead": ("DTS phase-update overhead per data report", dts_overhead_vs_rate, "rates"),
}


class _Parser(argparse.ArgumentParser):
    """A parser that may add its arguments (``configure``) when it first parses."""

    configure: Optional[Callable[[argparse.ArgumentParser], None]] = None

    def parse_known_args(self, args=None, namespace=None):
        configure, self.configure = self.configure, None
        if configure is not None:
            configure(self)
        return super().parse_known_args(args, namespace)


def _configure_perf(parser: argparse.ArgumentParser) -> None:
    # Imported on first parse, so only a `perf` command loads the perf history.
    from .obs.perfcli import configure_perf_parser

    configure_perf_parser(parser)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="essat-repro",
        description="Reproduce the ESSAT paper's experiments (Chipara, Lu, Roman).",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="reduced",
        help="scenario size: smoke (seconds), reduced (default), paper (full scale)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="replications per data point (default: per scale)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep execution (1 = serial, deterministic either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store; repeated/interrupted sweeps reuse finished runs",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-job progress and ETA to stderr while a sweep runs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    figure_parser = subparsers.add_parser("figure", help="regenerate one of the paper's figures")
    figure_parser.add_argument("name", choices=[*sorted(FIGURES), "headline"])

    compare_parser = subparsers.add_parser(
        "compare", help="run every protocol on one workload and compare them"
    )
    compare_parser.add_argument("--base-rate", type=float, default=2.0, help="base rate in Hz")
    compare_parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(ALL_PROTOCOLS),
        choices=list(ALL_PROTOCOLS),
        help="protocols to include",
    )

    subparsers.add_parser("list", help="list available figures, protocols and scales")
    perf = subparsers.add_parser(
        "perf", help="record, report, diff and gate benchmark performance history"
    )
    perf.configure = _configure_perf
    return parser


def _print_headline(scenario: ScenarioConfig, rates: Sequence[float], out, orch) -> None:
    figure3 = figure3_duty_cycle_vs_rate(
        scenario, rates=rates, protocols=("DTS-SS", "SPAN"), **orch
    )
    figure6 = figure6_latency_vs_rate(
        scenario, rates=rates, protocols=("DTS-SS", "PSM", "SYNC"), **orch
    )
    print(figure3.to_table(), file=out)
    print(file=out)
    print(figure6.to_table(), file=out)
    print(file=out)
    print("headline claims (paper: duty 38-87% below SPAN, latency 36-98% below PSM/SYNC):", file=out)
    for key, value in headline_claims(figure3, figure6).items():
        print(f"  {key} = {value:.1f}%", file=out)


def _run_figure(name: str, scale: Scale, runs: Optional[int], out, orch) -> None:
    # Without --runs each generator keeps its own default: the scenario's
    # replications, or one typical run for Figures 5 and 8.
    if runs is not None:
        orch = {**orch, "num_runs": runs}
    scenario = scale.scenario()
    if name == "headline":
        _print_headline(scenario, scale.rates, out, orch)
        return
    description, generator, grid = FIGURES[name]
    if grid is not None:
        orch = {**orch, grid: getattr(scale, grid)}
    print(f"# {name}: {description}", file=out)
    print(generator(scenario, **orch).to_table(), file=out)


def _run_compare(
    scenario: ScenarioConfig,
    protocols: Sequence[str],
    base_rate: float,
    runs: Optional[int],
    out,
    orch,
) -> None:
    workload = rate_sweep_workload(base_rate)
    specs = [
        ExperimentSpec(scenario=scenario, protocol=protocol, workload=workload, num_runs=runs)
        for protocol in protocols
    ]
    results = run_sweep(specs, label="compare", **orch)
    # Replications differ in placement, so each run's lifetime is projected
    # against its own tree; averaging per-node energy across placements
    # first would mix unrelated nodes.
    trees = {}
    rows: Dict[str, Dict[str, float]] = {}
    for protocol, result in zip(protocols, results, strict=True):
        lifetimes = []
        for run in result.runs:
            seed = run.job.seed
            if seed not in trees:
                trees[seed] = build_routing_tree(
                    build_scenario_topology(scenario, seed),
                    max_distance_from_root=scenario.max_distance_from_root,
                )
            lifetimes.append(estimate_lifetime(run.metrics, trees[seed]).lifetime_in_days())
        metrics = result.metrics
        rows[protocol] = {
            "duty_cycle_%": metrics.average_duty_cycle * 100.0,
            "latency_ms": metrics.average_query_latency * 1000.0,
            "delivery_ratio": metrics.delivery_ratio,
            "lifetime_days": sum(lifetimes) / len(lifetimes),
        }
    print(
        f"protocol comparison at base rate {base_rate:g} Hz "
        f"({scenario.num_nodes} nodes, {scenario.duration:g}s):",
        file=out,
    )
    print(
        comparison_table(rows, ["duty_cycle_%", "latency_ms", "delivery_ratio", "lifetime_days"]),
        file=out,
    )


def _run_list(out) -> None:
    print("figures:", file=out)
    for name in sorted(FIGURES):
        print(f"  {name:9s} {FIGURES[name][0]}", file=out)
    print("  headline  the abstract's duty-cycle and latency reduction claims", file=out)
    print("protocols: " + ", ".join(ALL_PROTOCOLS), file=out)
    print("scales   : " + ", ".join(sorted(SCALES)), file=out)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "perf":
        # Perf-history commands never build a scenario or touch the
        # orchestrator options; dispatch before validating those.
        return args.func(args, out)
    scale = SCALES[args.scale]
    scenario = scale.scenario()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.runs is not None and args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    if args.cache_dir is not None:
        from pathlib import Path

        cache_path = Path(args.cache_dir)
        if cache_path.exists() and not cache_path.is_dir():
            parser.error(f"--cache-dir {args.cache_dir!r} exists and is not a directory")
    orch = {
        "jobs": args.jobs,
        "store": args.cache_dir,
        "progress": True if args.progress else None,
    }

    if args.command == "list":
        _run_list(out)
        return 0
    if args.command == "figure":
        _run_figure(args.name, scale, args.runs, out, orch)
        return 0
    if args.command == "compare":
        _run_compare(scenario, args.protocols, args.base_rate, args.runs, out, orch)
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

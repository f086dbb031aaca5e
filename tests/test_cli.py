"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import io
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments.figures as figures
from repro.cli import FIGURES, build_parser, main
from repro.experiments.lifetime import estimate_lifetime
from repro.experiments.runner import assemble_run
from repro.experiments.scenarios import SCALES, rate_sweep_workload
from repro.orchestrator.jobs import RunJob

README = Path(__file__).resolve().parent.parent / "README.md"

#: Figure -> the :class:`Scale` grid it sweeps.
GRID_FIGURES = {"fig2": "deadlines", "fig3": "rates", "fig4": "counts", "fig6": "rates",
                "fig7": "counts", "fig9": "rates", "overhead": "rates", "headline": "rates"}

#: Scale grid -> the workload field it varies.
GRID_FIELDS = {"rates": "base_rate_hz", "counts": "queries_per_class", "deadlines": "deadline"}


def planned_specs(monkeypatch, argv):
    """The experiment specs ``repro argv`` plans, captured without simulating."""
    planned = []

    def plan_only(specs, **_):
        planned.extend(specs)
        metrics = SimpleNamespace(average_duty_cycle=0.5, average_query_latency=0.1)
        return [SimpleNamespace(metrics=metrics, extras={}) for _ in specs]

    monkeypatch.setattr(figures, "run_sweep", plan_only)
    assert main(argv, out=io.StringIO()) == 0
    return planned


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def readme_cli_commands():
    """The argv of every ``python -m repro.cli`` line in README code blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if "python -m repro.cli" in line:
                yield shlex.split(line.split("python -m repro.cli", 1)[1], comments=True)


class TestParser:
    def test_known_scales_and_figures(self) -> None:
        assert set(SCALES) == {"smoke", "reduced", "paper"}
        assert {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "overhead"} <= set(
            FIGURES
        )

    def test_parser_offers_the_paper_figures_only(self) -> None:
        parser = build_parser()
        assert set(_subcommands(parser)) == {"figure", "compare", "list", "perf"}
        (name,) = [a for a in _subcommands(parser)["figure"]._actions if a.dest == "name"]
        paper = {f"fig{number}" for number in range(2, 10)}
        assert set(name.choices) == paper | {"overhead", "headline"}

    @pytest.mark.parametrize(
        "argv",
        [["scenarios"], ["scenarios", "list"], ["--scale", "smoke", "scenarios", "run", "churn"]],
    )
    def test_scenarios_command_is_a_usage_error(self, argv, capsys) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main(argv, out=io.StringIO())
        assert exit_info.value.code == 2
        assert "invalid choice: 'scenarios'" in capsys.readouterr().err

    def test_parser_requires_a_command(self) -> None:
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_parser_rejects_unknown_figure(self) -> None:
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "fig99"])

    def test_parser_accepts_scale_and_runs(self) -> None:
        args = build_parser().parse_args(["--scale", "smoke", "--runs", "2", "figure", "fig3"])
        assert args.scale == "smoke"
        assert args.runs == 2
        assert args.name == "fig3"

    def test_parser_accepts_orchestrator_flags(self) -> None:
        args = build_parser().parse_args(
            ["--jobs", "4", "--cache-dir", "/tmp/essat-cache", "--progress", "figure", "fig3"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/essat-cache"
        assert args.progress is True

    def test_orchestrator_flags_default_off(self) -> None:
        args = build_parser().parse_args(["figure", "fig3"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.progress is False

    def test_invalid_jobs_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "list"])

    @pytest.mark.parametrize("figure", ["fig3", "fig5"])
    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_invalid_runs_rejected(self, figure, runs, capsys) -> None:
        with pytest.raises(SystemExit) as exit_info:
            main(["--scale", "smoke", "--runs", runs, "figure", figure])
        assert exit_info.value.code == 2
        assert f"--runs must be >= 1, got {runs}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(readme_cli_commands()), ids=" ".join)
    def test_readme_cli_examples_parse(self, argv) -> None:
        build_parser().parse_args(argv)


class TestScalePlans:
    """``--scale`` alone picks the scenario and the sweep grid of a figure."""

    @pytest.mark.parametrize("figure", sorted(GRID_FIGURES))
    @pytest.mark.parametrize("scale_name", sorted(SCALES))
    def test_figure_plans_the_scales_scenario_and_grid(self, monkeypatch, scale_name, figure):
        argv = ["--scale", scale_name, "figure", figure]
        specs = planned_specs(monkeypatch, argv)
        scale, grid = SCALES[scale_name], GRID_FIGURES[figure]
        x_values = {getattr(spec.workload, GRID_FIELDS[grid]) for spec in specs}
        assert sorted(x_values) == list(getattr(scale, grid))
        for spec in specs:
            # Figure 9 varies only the break-even time of the scale's scenario.
            assert spec.scenario.with_overrides(break_even_time=None) == scale.scenario()
            assert spec.num_runs is None
        # The environment has no say in the plan.
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert planned_specs(monkeypatch, argv) == specs


class TestCommands:
    def test_list_command(self) -> None:
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        assert "fig3" in text and "DTS-SS" in text and "smoke" in text

    def test_figure_command_smoke_scale(self) -> None:
        out = io.StringIO()
        code = main(["--scale", "smoke", "--runs", "1", "figure", "fig5"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "Figure 5" in text
        assert "NTS-SS" in text

    def test_overhead_figure_command(self) -> None:
        out = io.StringIO()
        code = main(["--scale", "smoke", "--runs", "1", "figure", "overhead"], out=out)
        assert code == 0
        assert "bits/report" in out.getvalue()

    def test_figure_command_with_jobs_and_cache_dir(self, tmp_path) -> None:
        cache_dir = str(tmp_path / "cache")
        cold = io.StringIO()
        code = main(
            ["--scale", "smoke", "--runs", "1", "--jobs", "2", "--cache-dir", cache_dir,
             "figure", "fig5"],
            out=cold,
        )
        assert code == 0
        shards = list((tmp_path / "cache").glob("v*/shards/*.jsonl"))
        assert shards, "cold run must persist results into the sharded store"
        # A warm cache replays the figure without the simulator and must
        # print the identical table.
        warm = io.StringIO()
        code = main(
            ["--scale", "smoke", "--runs", "1", "--cache-dir", cache_dir, "figure", "fig5"],
            out=warm,
        )
        assert code == 0
        assert warm.getvalue() == cold.getvalue()

    def test_compare_command(self) -> None:
        out = io.StringIO()
        code = main(
            [
                "--scale",
                "smoke",
                "--runs",
                "1",
                "compare",
                "--base-rate",
                "1.0",
                "--protocols",
                "DTS-SS",
                "SPAN",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "DTS-SS" in text and "SPAN" in text
        assert "duty_cycle_%" in text and "lifetime_days" in text

    def test_compare_lifetime_is_the_mean_of_per_replication_lifetimes(self) -> None:
        # Replications differ in placement and root: each run's lifetime is
        # projected on the tree it ran on, never on averaged per-node energy.
        out = io.StringIO()
        argv = ["--scale", "smoke", "--runs", "3", "compare", "--base-rate", "2"]
        assert main([*argv, "--protocols", "SPAN"], out=out) == 0
        row = out.getvalue().splitlines()[-1].split()
        assert row[0] == "SPAN"
        scenario = SCALES["smoke"].scenario()
        lifetimes = []
        for seed in (scenario.seed, scenario.seed + 1, scenario.seed + 2):
            queries = RunJob(
                scenario=scenario, protocol="SPAN", seed=seed, workload=rate_sweep_workload(2.0)
            ).resolve_queries()
            run = assemble_run(scenario, "SPAN", queries, seed)
            metrics, _ = run.execute()
            lifetimes.append(estimate_lifetime(metrics, run.tree).lifetime_in_days())
        assert row[-1] == "{:.4g}".format(sum(lifetimes) / len(lifetimes))

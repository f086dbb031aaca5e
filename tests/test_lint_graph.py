"""Whole-program lint tests: the project graph, REP100/101, the
incremental cache, and the SARIF reporter.

The fixtures build a synthetic ``src/repro/...`` tree under ``tmp_path``
(the layer map keys off the ``repro`` package root, so the synthetic
packages reuse real package names: ``net`` is simulation, ``obs`` and
``orchestrator`` are orchestration).  Each whole-program rule is proven
twice, like the file-local rules in ``test_lint.py``: it *fires* on a
minimal violating tree and it *stays silent* on the sanctioned idiom its
docstring names.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint.base import FileContext
from repro.lint.cache import DEFAULT_CACHE_NAME
from repro.lint.cli import main as lint_main
from repro.lint.graph import Layer, build_project_graph
from repro.lint.layers import (
    FIREWALL_EXEMPT_EDGES,
    HOT_PATH_MODULES,
    ORCHESTRATION_PACKAGES,
    SIMULATION_PACKAGES,
)
from repro.lint.reporters import render_sarif, sarif_dict
from repro.lint.runner import lint_paths


def write_module(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def make_tree(tmp_path: Path) -> Path:
    """A minimal repro-shaped tree with one violation per rule family.

    * ``net.channel`` (simulation) imports ``obs.metrics`` (orchestration)
      at module level -> REP100, and calls ``stamp()`` which reaches
      ``time.time`` -> REP101.
    * ``net.node`` imports ``net.channel`` (sim -> sim; extends the
      firewall chain but is itself clean).
    """
    root = tmp_path / "src" / "repro"
    write_module(root, "net/__init__.py", "")
    write_module(
        root,
        "net/channel.py",
        """
        from ..obs.metrics import stamp


        def on_packet():
            return stamp()
        """,
    )
    write_module(
        root,
        "net/node.py",
        """
        from .channel import on_packet


        def deliver():
            return on_packet()
        """,
    )
    write_module(root, "obs/__init__.py", "")
    write_module(
        root,
        "obs/metrics.py",
        """
        import time


        def stamp():
            return time.time()
        """,
    )
    return root


def contexts_for(root: Path) -> list:
    return [
        FileContext(str(path), path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    ]


def findings_for(root: Path, code: str) -> list:
    return [f for f in lint_paths([root], select=[code]).findings if f.code == code]


class TestProjectGraph:
    def test_module_names_and_layers(self, tmp_path: Path) -> None:
        graph = build_project_graph(contexts_for(make_tree(tmp_path)))
        assert {"net", "net.channel", "net.node", "obs.metrics"} <= set(graph.modules)
        assert graph.modules["net"].is_package
        assert graph.modules["net.channel"].layer is Layer.SIMULATION
        assert graph.modules["obs.metrics"].layer is Layer.ORCHESTRATION

    def test_relative_imports_resolve_to_internal_modules(self, tmp_path: Path) -> None:
        graph = build_project_graph(contexts_for(make_tree(tmp_path)))
        channel = graph.modules["net.channel"]
        assert any(edge.target == "obs.metrics" for edge in channel.imports)
        assert channel.bindings.get("stamp") == "obs.metrics.stamp"

    def test_hazard_chain_walks_cross_module_calls(self, tmp_path: Path) -> None:
        graph = build_project_graph(contexts_for(make_tree(tmp_path)))
        chain = graph.hazard_chain("obs.metrics.stamp")
        assert chain is not None
        assert chain[0] == "obs.metrics.stamp"
        assert chain[-1].startswith("time.time")

    def test_hazard_chain_none_for_pure_functions(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        write_module(
            root,
            "obs/pure.py",
            """
            def double(x):
                return 2 * x
            """,
        )
        graph = build_project_graph(contexts_for(root))
        assert graph.hazard_chain("obs.pure.double") is None

    def test_import_chain_shows_upstream_sim_importers(self, tmp_path: Path) -> None:
        graph = build_project_graph(contexts_for(make_tree(tmp_path)))
        chain = graph.import_chain_to(graph.modules["net.channel"])
        assert chain == ["net.node", "net.channel"]


class TestREP100LayerFirewall:
    def test_fires_on_sim_importing_orchestration(self, tmp_path: Path) -> None:
        findings = findings_for(make_tree(tmp_path), "REP100")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path.endswith("net/channel.py")
        assert finding.line == 2
        assert "net.channel" in finding.message
        assert "obs.metrics" in finding.message
        assert "net.node -> net.channel" in finding.message  # the chain

    def test_silent_on_type_checking_guarded_import(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        write_module(
            root,
            "net/channel.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from ..obs.metrics import stamp


            def on_packet():
                return 0
            """,
        )
        assert findings_for(root, "REP100") == []

    def test_silent_on_sim_to_sim_import(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        findings = findings_for(root, "REP100")
        assert all(not f.path.endswith("net/node.py") for f in findings)

    def test_exempt_edge_is_honoured(self, tmp_path: Path, monkeypatch) -> None:
        root = make_tree(tmp_path)
        monkeypatch.setitem(FIREWALL_EXEMPT_EDGES, ("net", "obs"), "test exemption")
        assert findings_for(root, "REP100") == []

    def test_inline_suppression_applies_to_project_findings(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        write_module(
            root,
            "net/channel.py",
            """
            from ..obs.metrics import stamp  # reprolint: disable=REP100,REP101 reason=test fixture


            def on_packet():
                return stamp()  # reprolint: disable=REP101 reason=test fixture
            """,
        )
        assert lint_paths([root], select=["REP100", "REP101"]).findings == []


class TestLayerMap:
    def test_every_named_module_exists(self) -> None:
        """A stale layer-map entry (a deleted package or file) must fail."""
        root = Path(repro.__file__).parent
        names = set(SIMULATION_PACKAGES) | set(ORCHESTRATION_PACKAGES) | set(HOT_PATH_MODULES)
        for source, target in FIREWALL_EXEMPT_EDGES:
            names |= {source, target}

        def resolves(name: str) -> bool:
            path = root / name
            return (
                path.is_file()
                or (path / "__init__.py").is_file()
                or path.with_suffix(".py").is_file()
            )

        assert sorted(name for name in names if not resolves(name)) == []


class TestREP101TransitiveHazard:
    def test_fires_on_cross_module_wall_clock_chain(self, tmp_path: Path) -> None:
        findings = findings_for(make_tree(tmp_path), "REP101")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path.endswith("net/channel.py")
        assert "net.channel.on_packet -> obs.metrics.stamp -> time.time" in finding.message

    def test_silent_when_helper_is_pure(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        write_module(
            root,
            "obs/metrics.py",
            """
            def stamp():
                return 0.0
            """,
        )
        assert findings_for(root, "REP101") == []

    def test_direct_hazards_are_not_duplicated(self, tmp_path: Path) -> None:
        # A direct time.time() inside a sim module is REP001's finding;
        # REP101 owns only the cross-module chains.
        root = tmp_path / "src" / "repro"
        write_module(
            root,
            "net/direct.py",
            """
            import time


            def stamp():
                return time.time()
            """,
        )
        assert findings_for(root, "REP101") == []
        assert [f.code for f in findings_for(root, "REP001")] == ["REP001"]


class TestIncrementalCache:
    def test_warm_run_replays_identical_findings(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        cold = lint_paths([root], cache_path=cache)
        assert cache.is_file()
        warm = lint_paths([root], cache_path=cache)
        assert [f.as_dict() for f in warm.findings] == [
            f.as_dict() for f in cold.findings
        ]
        assert warm.files_checked == cold.files_checked

    def test_file_edit_invalidates_its_entry_and_project_findings(
        self, tmp_path: Path
    ) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        cold = lint_paths([root], cache_path=cache)
        assert "REP101" in cold.counts
        # Neutralise the helper: the cross-module chain must disappear even
        # though net/channel.py itself (the finding's file) is unchanged --
        # whole-program findings are keyed on the digest of the entire set.
        write_module(
            root,
            "obs/metrics.py",
            """
            def stamp():
                return 0.0
            """,
        )
        warm = lint_paths([root], cache_path=cache)
        assert "REP101" not in warm.counts

    def test_corrupt_cache_is_a_miss_not_an_error(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        cache.write_text("{not json", encoding="utf-8")
        result = lint_paths([root], cache_path=cache)
        assert result.files_checked == 5

    def test_cache_stores_raw_findings_pre_suppression(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        lint_paths([root], cache_path=cache)
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert payload["fingerprint"]
        assert payload["project"]["tree_digest"]
        suppressed = [
            entry
            for entry in payload["files"].values()
            for s in entry["suppressions"]
            if s.get("used")
        ]
        assert suppressed == []  # `used` flags must never persist

    def test_cli_no_cache_skips_cache_file(self, tmp_path: Path, monkeypatch) -> None:
        root = make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        assert lint_main(["--no-cache", str(root)], out=out) == 1
        assert not (tmp_path / DEFAULT_CACHE_NAME).exists()

    def test_cli_cache_path_writes_cache(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / "custom_cache.json"
        out = io.StringIO()
        assert lint_main(["--cache-path", str(cache), str(root)], out=out) == 1
        assert cache.is_file()
        again = io.StringIO()
        assert lint_main(["--cache-path", str(cache), str(root)], out=again) == 1
        assert again.getvalue() == out.getvalue()


class TestSarifReporter:
    @pytest.fixture
    def result(self, tmp_path: Path, monkeypatch):
        root = make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)  # SARIF URIs are rendered cwd-relative
        return lint_paths([root.relative_to(tmp_path)])

    def test_sarif_shape(self, result) -> None:
        payload = sarif_dict(result)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"REP000", "REP100", "REP101"} <= rule_ids
        assert run["results"], "fixture tree must produce findings"
        for item in run["results"]:
            assert item["ruleId"] in rule_ids
            location = item["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert not location["artifactLocation"]["uri"].startswith("/")

    def test_render_sarif_is_deterministic_json(self, result) -> None:
        rendered = render_sarif(result)
        assert json.loads(rendered)["version"] == "2.1.0"
        assert rendered == render_sarif(result)

    def test_cli_sarif_format(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        out = io.StringIO()
        assert lint_main(["--format", "sarif", "--no-cache", str(root)], out=out) == 1
        payload = json.loads(out.getvalue())
        codes = {item["ruleId"] for item in payload["runs"][0]["results"]}
        assert {"REP100", "REP101"} <= codes

"""Whole-tree lint runs: the incremental cache, the SARIF reporter, and the
layer map's names.

The fixtures build a synthetic ``src/repro/...`` tree under ``tmp_path``
(the layer map keys off the ``repro`` package root, so the synthetic
packages reuse real package names: ``net`` is simulation, ``obs`` is
orchestration).  The file-local rules' fire/silent fixtures are in
``test_lint.py``.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint.cache import DEFAULT_CACHE_NAME
from repro.lint.cli import main as lint_main
from repro.lint.layers import HOT_PATH_MODULES, ORCHESTRATION_PACKAGES, SIMULATION_PACKAGES
from repro.lint.reporters import render_sarif, sarif_dict
from repro.lint.runner import lint_paths


def write_module(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def make_tree(tmp_path: Path) -> Path:
    """A minimal repro-shaped tree with two findings and a clean module.

    * ``net.node`` (simulation) schedules in set order -> REP003, and
      appends to a listener list in place -> REP007.
    * ``obs.metrics`` (orchestration) is clean.
    """
    root = tmp_path / "src" / "repro"
    write_module(root, "net/__init__.py", "")
    write_module(
        root,
        "net/node.py",
        """
        class Node:
            def subscribe(self, listener):
                self._listeners.append(listener)

            def notify(self, sim, nodes):
                for node in set(nodes):
                    sim.schedule_in(0.0, node)
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


class TestLayerMap:
    def test_every_named_module_exists(self) -> None:
        """A stale layer-map entry (a deleted package or file) must fail."""
        root = Path(repro.__file__).parent
        names = set(SIMULATION_PACKAGES) | set(ORCHESTRATION_PACKAGES) | set(HOT_PATH_MODULES)

        def resolves(name: str) -> bool:
            path = root / name
            return (
                path.is_file()
                or (path / "__init__.py").is_file()
                or path.with_suffix(".py").is_file()
            )

        assert sorted(name for name in names if not resolves(name)) == []


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

    def test_file_edit_invalidates_its_entry(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        cold = lint_paths([root], cache_path=cache)
        assert cold.counts == {"REP003": 1, "REP007": 1}
        write_module(
            root,
            "net/node.py",
            """
            class Node:
                def subscribe(self, listener):
                    self._listeners = [*self._listeners, listener]

                def notify(self, sim, nodes):
                    for node in set(nodes):
                        sim.schedule_in(0.0, node)
            """,
        )
        warm = lint_paths([root], cache_path=cache)
        assert warm.counts == {"REP003": 1}

    def test_corrupt_cache_is_a_miss_not_an_error(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        cache.write_text("{not json", encoding="utf-8")
        result = lint_paths([root], cache_path=cache)
        assert result.files_checked == 4

    def test_cache_stores_each_files_findings(self, tmp_path: Path) -> None:
        root = make_tree(tmp_path)
        cache = tmp_path / DEFAULT_CACHE_NAME
        lint_paths([root], cache_path=cache)
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert payload["fingerprint"]
        codes = {
            Path(path).relative_to(root).as_posix(): sorted(f["code"] for f in entry["findings"])
            for path, entry in payload["files"].items()
        }
        assert codes == {
            "net/__init__.py": [],
            "net/node.py": ["REP003", "REP007"],
            "obs/__init__.py": [],
            "obs/metrics.py": [],
        }

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
        assert {"REP000", "REP003", "REP007"} <= rule_ids
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
        assert codes == {"REP003", "REP007"}

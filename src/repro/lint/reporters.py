"""Text, JSON, and SARIF renderings of a lint run."""

from __future__ import annotations

import json
from pathlib import Path, PurePosixPath
from typing import Any, Dict, List

from .runner import LintResult


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    if result.findings:
        counts = ", ".join(f"{code}: {count}" for code, count in result.counts.items())
        lines.append("")
        lines.append(
            f"{len(result.findings)} finding(s) in {result.files_checked} file(s) ({counts})"
        )
    else:
        lines.append(f"clean: 0 findings in {result.files_checked} file(s)")
    return "\n".join(lines)


def report_dict(result: LintResult) -> Dict[str, Any]:
    """The JSON report's payload (also used by tests and CI tooling)."""
    return {
        "tool": "reprolint",
        "files_checked": result.files_checked,
        "clean": result.clean,
        "counts": result.counts,
        "findings": [finding.as_dict() for finding in result.findings],
    }


def render_json(result: LintResult) -> str:
    """Deterministic JSON report (sorted keys, stable finding order)."""
    return json.dumps(report_dict(result), indent=2, sort_keys=True)


#: The SARIF 2.1.0 schema the report declares.
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _sarif_uri(path: str) -> str:
    """Repo-relative posix URI when possible (GitHub anchors findings to
    the checked-out tree), the given path otherwise."""
    candidate = Path(path)
    try:
        candidate = candidate.resolve().relative_to(Path.cwd().resolve())
    except (OSError, ValueError):
        pass
    return str(PurePosixPath(*candidate.parts))


def sarif_dict(result: LintResult) -> Dict[str, Any]:
    """The SARIF 2.1.0 payload (``github/codeql-action/upload-sarif``
    consumes this to annotate PR diffs)."""
    from .base import all_checkers
    from .runner import META_CODE

    rules: List[Dict[str, Any]] = [
        {
            "id": META_CODE,
            "name": "parse-failure",
            "shortDescription": {"text": "The file does not parse"},
            "defaultConfiguration": {"level": "error"},
        }
    ]
    for checker in all_checkers():
        rationale = checker.rationale()
        short = rationale.splitlines()[0] if rationale else checker.name
        rules.append(
            {
                "id": checker.code,
                "name": checker.name,
                "shortDescription": {"text": short},
                "fullDescription": {"text": rationale},
                "defaultConfiguration": {"level": "error"},
            }
        )
    results: List[Dict[str, Any]] = [
        {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": _sarif_uri(finding.path),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in result.findings
    ]
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(result: LintResult) -> str:
    """Deterministic SARIF rendering of the lint run."""
    return json.dumps(sarif_dict(result), indent=2, sort_keys=True)

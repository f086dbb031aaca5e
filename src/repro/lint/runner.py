"""File walking and the lint entry points.

A file that does not parse is reported as ``REP000`` rather than raised:
one broken file must not hide the findings of the rest of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .base import Checker, FileContext, select_checkers
from .cache import FileEntry, LintCache, rules_fingerprint, source_digest
from .findings import Finding

#: The meta-rule code for files that do not parse.
META_CODE = "REP000"


@dataclass(slots=True)
class LintResult:
    """Outcome of linting a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        """Findings per rule code (sorted by code)."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def clean(self) -> bool:
        return not self.findings


def _check_file(source: str, path: str, checkers: Sequence[Checker]) -> List[Finding]:
    """Run the rules on one source blob (a syntax error is a REP000 finding)."""
    try:
        context = FileContext(path, source)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                code=META_CODE,
                message=f"file does not parse: {error.msg}",
            )
        ]
    findings: List[Finding] = []
    for checker in checkers:
        if checker.applies_to(context):
            findings.extend(checker.check(context))
    return findings


def lint_source(
    source: str,
    path: str = "fixture.py",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (the test-fixture entry point).

    ``path`` drives the layer map, so fixtures choose their regime by
    naming themselves e.g. ``src/repro/core/fixture.py`` (simulation) or
    ``src/repro/mac/csma.py`` (a hot-path module).
    """
    findings = _check_file(source, path, select_checkers(select))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    result = []
    seen = set()
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            candidates: Iterable[Path] = sorted(entry_path.rglob("*.py"))
        else:
            candidates = [entry_path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                result.append(candidate)
    return result


def lint_paths(
    paths: Iterable[Union[str, Path]],
    select: Optional[Sequence[str]] = None,
    cache_path: Optional[Union[str, Path]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` and aggregate the findings.

    ``cache_path`` enables the incremental cache: unchanged files replay
    their cached findings without being parsed.
    """
    checkers = select_checkers(select)
    cache: Optional[LintCache] = None
    if cache_path is not None:
        fingerprint = rules_fingerprint([c.code for c in checkers])
        cache = LintCache.load(Path(cache_path), fingerprint)

    files = iter_python_files(paths)
    result = LintResult(files_checked=len(files))
    entries: Dict[str, FileEntry] = {}
    for file_path in files:
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        digest = source_digest(source)
        cached = cache.lookup(path, digest) if cache is not None else None
        if cached is not None:
            findings = [Finding(**f) for f in cached]
        else:
            findings = _check_file(source, path, checkers)
        entries[path] = (digest, [f.as_dict() for f in findings])
        result.findings.extend(findings)

    if cache is not None:
        cache.files = entries
        cache.save()
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result

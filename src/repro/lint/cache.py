"""The incremental lint cache: per-file findings keyed on content hash.

Pre-commit's common case is an unchanged (or one-file) tree, so re-parsing
a hundred files per commit is pure waste.  The cache stores, per file, the
SHA-256 of its source plus its findings; on a hit the file is neither
parsed nor checked.  Every rule is file-local, so one file's edit never
changes another file's findings.

The cache is an implementation detail of speed, never of truth: a
fingerprint of the rule set, the lint package's source and the cache
schema version guards every load, so adding or editing a rule or changing
the format simply discards stale entries.  Corrupt or unreadable cache
files are ignored, not fatal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Bump when the on-disk cache layout changes.
CACHE_SCHEMA = 2

#: Default cache location (repo root / current working directory).
DEFAULT_CACHE_NAME = ".reprolint_cache.json"

#: One file's cached state: its source digest and its findings as dicts.
FileEntry = Tuple[str, List[Dict[str, Any]]]


def source_digest(source: str) -> str:
    """Content hash of one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def rules_fingerprint(codes: Sequence[str]) -> str:
    """Cache key: the rule codes and the source of every lint module, so
    editing a rule discards the findings its old code cached."""
    digest = hashlib.sha256(f"{CACHE_SCHEMA}:{','.join(sorted(codes))}".encode("utf-8"))
    package = Path(__file__).resolve().parent
    for module in sorted(package.rglob("*.py")):
        digest.update(module.relative_to(package).as_posix().encode("utf-8"))
        digest.update(module.read_bytes())
    return digest.hexdigest()


class LintCache:
    """Load/consult/update/save cycle for one lint run."""

    __slots__ = ("path", "fingerprint", "files")

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.files: Dict[str, FileEntry] = {}

    @classmethod
    def load(cls, path: Path, fingerprint: str) -> "LintCache":
        """Read a cache file; mismatched or unreadable caches come back
        empty (a miss, never an error)."""
        cache = cls(path, fingerprint)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if not isinstance(data, dict) or data.get("fingerprint") != fingerprint:
            return cache
        files = data.get("files")
        if isinstance(files, dict):
            for file_path, entry in files.items():
                if isinstance(entry, dict) and "digest" in entry:
                    findings = list(entry.get("findings", ()))
                    cache.files[file_path] = (str(entry["digest"]), findings)
        return cache

    def lookup(self, path: str, digest: str) -> Optional[List[Dict[str, Any]]]:
        """The cached findings for ``path`` iff its content is unchanged."""
        entry = self.files.get(path)
        if entry is not None and entry[0] == digest:
            return entry[1]
        return None

    def save(self) -> None:
        """Persist atomically (write-then-rename); failures are silent --
        a lint run must never break because the cache dir is read-only."""
        payload = {
            "schema": CACHE_SCHEMA,
            "fingerprint": self.fingerprint,
            "files": {
                path: {"digest": digest, "findings": findings}
                for path, (digest, findings) in sorted(self.files.items())
            },
        }
        try:
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, self.path)
        except OSError:
            pass

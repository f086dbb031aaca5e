"""The finding record shared by every checker and reporter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Path of the offending file, as given to the runner (repo-relative
        in CLI/CI runs, synthetic in tests).
    line / col:
        1-based line and 0-based column of the offending node.
    code:
        The rule code (``REP003`` ...), or ``REP000`` for a file that
        does not parse (emitted by the runner itself).
    message:
        Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (used by the JSON reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        """The conventional one-line ``path:line:col: CODE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

"""Import hygiene: the entry points load no heavy third-party package.

The package runs on the standard library alone, and every CLI call, pool
worker and store replay pays its import cost.  This checks which modules an
import pulls in rather than how long it takes, so a new import of a heavy
package fails here deterministically instead of showing up as benchmark
drift.  It runs in a subprocess because the test session itself has already
imported scipy, numpy and networkx (they are test oracles).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Packages the simulator and its tooling must never import.
HEAVY_PACKAGES = ("scipy", "numpy", "networkx")

_PROGRAM = f"""
import json
import sys

import repro.cli
import repro.experiments.figures
import repro.orchestrator.api

print(json.dumps(sorted(name for name in {HEAVY_PACKAGES!r} if name in sys.modules)))
"""


def test_entry_points_import_no_heavy_packages() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _PROGRAM],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []

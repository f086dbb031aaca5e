"""Cross-hash-seed determinism: results must not depend on PYTHONHASHSEED.

Python randomizes ``str``/``bytes`` hashing per process unless
``PYTHONHASHSEED`` is pinned, so any simulation behaviour that leaks dict
or set *iteration order* of string-keyed containers into event timing,
float accumulation, or RNG draws would produce different results from one
process to the next, and so would ``hash()`` of a string reaching control
flow.  This test is the end-to-end proof that none does: two fresh
subprocesses with *different* hash seeds must produce byte-identical
metrics and an identical trace digest.

This is deliberately a subprocess test -- the parent's own hash seed is
already fixed, so in-process assertions could never catch a violation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Program run in each subprocess: snapshot one smoke cell's metrics and
#: trace digest via the golden-file helpers, then print them as JSON.
_SNAPSHOT_PROGRAM = """
import json
import sys

sys.path.insert(0, {golden_dir!r})
from make_hotpath_golden import metrics_snapshot, trace_snapshot

payload = {{
    "metrics": metrics_snapshot("smoke", "DTS-SS", 1),
    "trace": trace_snapshot("smoke", "DTS-SS", 1),
}}
print(json.dumps(payload, sort_keys=True))
"""


def _snapshot_with_hash_seed(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    program = _SNAPSHOT_PROGRAM.format(golden_dir=str(REPO_ROOT / "tests" / "golden"))
    result = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_metrics_and_trace_identical_across_hash_seeds() -> None:
    first = _snapshot_with_hash_seed("1")
    second = _snapshot_with_hash_seed("2")
    assert first == second, "simulation output depends on PYTHONHASHSEED"
    # Sanity: the payload is real (a digest plus non-trivial metrics), not
    # two identically-empty snapshots.
    payload = json.loads(first)
    assert payload["trace"]["trace_records"] > 0
    assert len(payload["trace"]["trace_sha256"]) == 64
    assert payload["metrics"]["deliveries"] > 0

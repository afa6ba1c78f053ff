"""The benchmark's own test: exact work counts repeat, tracing is inert.

    python3 -m pytest perfbench/test_perfbench.py -q

Two traced runs of one seed, each in a fresh interpreter, must record
identical per-layer call counts and work counters, and their simulated
run must be identical to an untraced run of the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _point(*flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "point.py"), "--workload",
         "local-write", "--seed", "3", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_runs_repeat_exact_counts_and_match_untraced_run():
    first, second = _point("--trace"), _point("--trace")
    untraced = _point()
    for key in ("calls", "counts", "events", "msgs", "wan_msgs"):
        assert first["layers"][key] == second["layers"][key], key
    assert first["layers"]["calls"]["crypto.digest"] > 0
    assert first["layers"]["leaked_bindings"] == []
    for traced in (first, second):
        assert traced["sim"] == untraced["sim"]
        assert traced["fingerprint"] == untraced["fingerprint"]

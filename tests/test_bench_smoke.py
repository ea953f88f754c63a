"""The traced benchmark run, end to end, on a short time budget.

A layer entry point that `bench/spans.py` wraps and that no longer exists
shows up as an `absent:` line; the last line must be the strict-JSON
result.  The test only reads `bench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_traced_ref2_run():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref2", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line for line in lines if line.startswith("absent:")] == []
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0

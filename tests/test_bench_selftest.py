"""The benchmark's checks on its own checkers, run as a subprocess."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_catches_every_sabotaged_operation():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert result["attempted"] == 3
    assert result["failed"] == 3  # operations whose corrupted output was caught
    assert proc.stderr.count(": caught: ") == 3, proc.stderr

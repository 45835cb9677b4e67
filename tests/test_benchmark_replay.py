"""The benchmark's fixed-seed replay (perfbench/reference.py) must still
reproduce the numbers perfbench/reference.json records.

It replays every benchmark workload through the public API, so it catches
numeric drift in training, expansion or evaluation as well as a removed name
that the benchmark calls.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reference_replay_matches():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count(": ok") == 3, result.stdout

"""The benchmark's fixed-seed replay (perfbench/reference.py) must still
reproduce the numbers perfbench/reference.json records, and the harness's
own pieces must still fit the program.

The replay runs every benchmark workload through the public API, so it
catches numeric drift in training, expansion or evaluation as well as a
removed name that the benchmark calls.  The harness self-test and the
tracing wrappers catch a renamed function or argument that only the timed
run (perfbench/run.py) uses.
"""

import subprocess
import sys
from pathlib import Path

from bbekit.expansion import ExpansionSpec, expand

ROOT = Path(__file__).resolve().parents[1]


def test_reference_replay_matches():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count(": ok") == 3, result.stdout


def test_harness_self_test_passes():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             str(ROOT / "perfbench" / "test_harness.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracing_wraps_the_program(tiny_model, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.bbekit_targets(), traced=True):
        pass
    model = expand(tiny_model, ExpansionSpec(2, "head-only"))
    tracing._count_params(tracer, (model.store,))
    assert tracer.counters["optim.params_updated"] == 16 * 6 + 6

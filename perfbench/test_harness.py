"""Self-test of the harness's pure parts.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from reference import compare  # noqa: E402
from run import percentile  # noqa: E402
from tracing import (Target, Tracer, busy_and_self, instrument,  # noqa: E402
                     self_times, step_durations)
from workloads import WORKLOADS, conv_specs, source_specs, target_spec  # noqa: E402


def span(name, start, end, parent=-1, step=None, failed=False):
    return [name, start, end, parent, step, failed]


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second child has a
    # grandchild [6, 8]; a third child [3, 6] overlaps the first two.
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 9.0, parent=0),
        span("c", 6.0, 8.0, parent=2),
        span("d", 3.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 8.0, 3.0, 4.0 - 2.0, 2.0, 3.0])
    busy, own = busy_and_self(spans)
    assert busy["root"] == pytest.approx(10.0)
    assert own["b"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(2.0 + 3.0 + 2.0 + 2.0 + 3.0)


def test_step_durations_skip_unfinished_steps():
    spans = [
        span("corpus.next_batch", 0.0, 1.0, step=0),
        span("optim.adamw_step", 4.0, 5.0, step=0),
        span("trainer.evaluate", 5.0, 7.0),
        span("corpus.next_batch", 7.0, 8.0, step=1),
        span("optim.adamw_step", 9.0, 9.5, step=1, failed=True),
    ]
    assert step_durations(spans, "corpus.next_batch", "optim.adamw_step") == [5.0]


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 90.0) == pytest.approx(3.7)


def test_instrument_records_nesting_and_restores():
    import types

    module = types.ModuleType("perfbench_fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    sys.modules["perfbench_fake"] = module
    originals = (module.inner, module.outer)
    tracer = Tracer()
    targets = [Target("outer", "perfbench_fake", "outer"),
               Target("inner", "perfbench_fake", "inner", always=True)]
    try:
        with instrument(tracer, targets, traced=True):
            assert module.outer(1) == 4
        assert (module.inner, module.outer) == originals
        assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
        tracer.reset()
        with instrument(tracer, targets, traced=False):
            module.outer(1)
        assert [s[0] for s in tracer.spans] == ["inner"]
    finally:
        del sys.modules["perfbench_fake"]


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_seeded_generation_is_deterministic(tmp_path):
    assert source_specs(5) == source_specs(5)
    assert target_spec(5) == target_spec(5)
    assert conv_specs(5) == conv_specs(5)
    assert source_specs(5) != source_specs(6)

    for name, workload in WORKLOADS.items():
        for i in range(2):
            workload.inputs(tmp_path / f"{name}-{i}", 3)
        assert _tree_digest(tmp_path / f"{name}-0") == _tree_digest(tmp_path / f"{name}-1")
    other = WORKLOADS["stage1-rr"].inputs(tmp_path / "other", 4)
    assert _tree_digest(tmp_path / "other") != _tree_digest(tmp_path / "stage1-rr-0")
    assert len(other["sources"]) == 4


def test_reference_compare_tolerates_rounding_only():
    recorded = {"losses": [1.5, 0.75], "probe_logits": [[0.1, -2.0], [3.0, 0.0]]}
    assert compare(recorded, {"losses": [1.5 * (1 + 1e-9), 0.75],
                              "probe_logits": [[0.1, -2.0], [3.0, 1e-12]]}) == []
    found = compare(recorded, {"losses": [1.5, 0.7501], "probe_logits": [[0.1, -2.0]]})
    assert len(found) == 2
    assert found[0].startswith("reference losses: 1 of 2 values differ")
    assert found[1] == "reference probe_logits: 2 values, recorded 4"

"""Fixed-seed replay: a guard against a change that is fast but wrong.

Each workload is replayed at a short size on inputs from a fixed seed, and
its numbers are compared with the ones `reference.json` records: the losses
of the set-up's training and of the episode, and the final model's logits on
a few test samples.  A broken attention, FFN, ZLL gate, gradient or
optimizer step moves these by far more than the tolerance; a change that
only reorders floating-point sums does not.

    python3 perfbench/reference.py            # compare every workload
    python3 perfbench/reference.py --write    # re-record reference.json

Re-record only for a change that is meant to alter the numbers, and say so.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0
N_PROBES = 4
REL_TOL = 1e-6
ABS_TOL = 1e-9


def replay(workload, root: Path) -> dict:
    """Run the workload's short replay under `root`; returns its numbers."""
    inputs = workload.inputs(root / "inputs", REFERENCE_SEED)
    ctx = workload.setup(inputs, REFERENCE_SEED, workload.reference_size, root)
    out = root / "episode"
    out.mkdir()
    outcome = workload.episode(ctx, out)
    manifest = ctx["sources"][0] if "sources" in ctx else ctx["target"]
    probes = manifest.split_samples("test")[:N_PROBES]
    setup_log = ctx["setup_log"]
    return {
        "setup_losses": [v for _, _, v in setup_log.losses] if setup_log else [],
        "losses": [v for _, _, v in outcome.log.losses],
        "probe_logits": [[float(x) for x in outcome.model.logits(manifest.features(s))]
                         for s in probes],
    }


def _flat(values) -> list[float]:
    out = []
    for v in values:
        out.extend(_flat(v) if isinstance(v, list) else [v])
    return out


def compare(recorded: dict, replayed: dict) -> list[str]:
    """The recorded figures the replay does not reproduce."""
    problems = []
    for key, want in recorded.items():
        want, got = _flat(want), _flat(replayed.get(key, []))
        if len(want) != len(got):
            problems.append(f"reference {key}: {len(got)} values, recorded {len(want)}")
            continue
        bad = [i for i, (w, g) in enumerate(zip(want, got))
               if not math.isclose(w, g, rel_tol=REL_TOL, abs_tol=ABS_TOL)]
        if bad:
            i = bad[0]
            problems.append(f"reference {key}: {len(bad)} of {len(want)} values differ, "
                            f"first at {i}: {got[i]!r} != recorded {want[i]!r}")
    return problems


def check(workload, root: Path) -> list[str]:
    recorded = json.loads(FILE.read_text())
    if workload.name not in recorded:
        return [f"reference: {FILE.name} has no entry for {workload.name}"]
    root.mkdir(parents=True)
    try:
        return compare(recorded[workload.name], replay(workload, root))
    except Exception as exc:  # a replay that raises is a failed check
        return [f"reference {workload.name}: replay raised {exc!r}"]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-record reference.json")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as in run.py, before numpy loads
    sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]
    from workloads import WORKLOADS

    work = BENCH_DIR.parent / ".perfbench_work" / f"reference-{os.getpid()}"
    try:
        return _compare_all(WORKLOADS, work) if not args.write else _write(WORKLOADS, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _compare_all(workloads: dict, work: Path) -> int:
    problems = []
    for workload in workloads.values():
        found = check(workload, work / workload.name)
        print(f"{workload.name}: {'ok' if not found else 'MISMATCH'}")
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def _write(workloads: dict, work: Path) -> int:
    recorded = {}
    for name, workload in workloads.items():
        (work / name).mkdir(parents=True)
        recorded[name] = replay(workload, work / name)
    FILE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

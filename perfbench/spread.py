"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload stage1-rr --seeds 1-10 [--out F]

For each metric: the median over the runs, and the distance between the
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median, beside the metric's bound from BENCHMARK.json.  Runs are
sequential, one process at a time, untraced, for BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's result and the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        runs.append({"seed": seed, "exit": proc.returncode, "result": result})
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
              f"failed {result.get('failed')}/{result.get('attempted')}", flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])

    ok = [r["result"] for r in runs if r["exit"] == 0]
    summary = {}
    for name in (ok[0]["metrics"] if ok else {}):
        values = [r["metrics"][name]["value"] for r in ok]
        summary[name] = {"median": statistics.median(values), "unit": ok[0]["metrics"][name]["unit"],
                         "spread": spread(values) if len(values) >= 2 else None,
                         "bound": bounds.get(name), "values": values}
        s = summary[name]
        shown = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload:20s} {name:42s} median {s['median']:12.6g} {s['unit']:6s} "
              f"spread {shown:>8s} bound {s['bound']}")
    if args.out is not None:
        args.out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                        "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if len(ok) == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())

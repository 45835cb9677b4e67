"""bbekit benchmark: one workload of the block-expansion recipe, end to end.

    python3 perfbench/run.py --workload stage1-rr --seed 1 --seconds 30 --trace 0

Load is one closed-loop client in one process with one BLAS thread: each
training step or evaluation starts when the previous one returns.  A run
writes the seeded inputs, sets the workload up on them, then repeats
identical episodes of the workload's timed phase until they have taken
`--seconds`, setting up again between episodes (reporting the median
set-up time), and last replays every workload at a fixed seed against
reference.json.  With `--trace 0` it prints
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
episodes and prints the per-layer metrics.  The full record (every figure,
the environment, and in a traced run the spans) is written under
`.perfbench_results/`; the last line of standard output is the result JSON.
Exit code 1 means a correctness check failed, 2 that bbekit is missing.
"""

from __future__ import annotations

import os

# Fixed here, before numpy loads, so the library code keeps its defaults.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference  # noqa: E402
from tracing import (END, FAILED, FUNCTIONAL_OPS, NAME, PARENT, START,  # noqa: E402
                     STEP, Tracer, bbekit_targets, busy_and_self, instrument,
                     span_counts, step_durations)

SPAN_COLUMNS = ("name", "start_s", "end_s", "parent", "step", "failed")
SETUP_MIN_REPS = 3
SETUP_SHARE = 0.3  # of episode time, at most, spent on set-up reps between episodes
RESULTS_DIR = ".perfbench_results"
MIN_EPISODES = 2  # per kind; two same-seed episodes are the determinism check
OP_SPANS = ("trainer.evaluate", "expansion.expand",
            "checkpoint.save_checkpoint", "checkpoint.load_checkpoint")
# The host's speed changes within seconds and between runs (see README).
# The slow tails of steps and of evaluate calls measure the host's slower,
# contended speed, which shows in nearly every run; a median follows how
# much of the run the host spent fast.  The step tail stays below p95: on
# stage1-rr two steps in 50 are about twice as slow, and a higher
# percentile lands among them.  Fixed percentiles keep a faster commit,
# which runs more steps in the same time, comparable.
STEP_TAIL_PERCENTILE = 90.0
EVAL_LOW_PERCENTILE = 5.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def environment(args, load_before) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "host": platform.node(),
        "machine": platform.machine(),
        "loadavg_before": list(load_before), "loadavg_after": list(os.getloadavg()),
        "commit": commit, "workload": args.workload, "seed": args.seed,
        "heldout_seed": args.heldout_seed, "seconds": args.seconds, "trace": args.trace,
    }


class Episode:
    """The reduced record of one episode.  A traced episode keeps its spans
    until the run writes them out."""

    def __init__(self, tracer: Tracer, traced: bool, wall_s: float, outcome, error):
        spans = tracer.spans
        self.spans = list(spans) if traced else []
        self.traced = traced
        self.wall_s = wall_s
        self.outcome = outcome
        self.error = error
        self.step_s = step_durations(spans, "corpus.next_batch", "optim.adamw_step")
        evals = [s for s in spans if s[NAME] == "trainer.evaluate" and not s[FAILED]]
        self.eval_samples = list(tracer.eval_samples)
        self.eval_rates = [n / (s[END] - s[START]) for s, n in zip(evals, self.eval_samples)]
        self.counters = dict(tracer.counters)
        self.calls = span_counts(spans)
        self.preservation = list(tracer.preservation)
        steps = len({s[STEP] for s in spans if s[NAME] == "corpus.next_batch"})
        ops = [s for s in spans if s[NAME] in OP_SPANS]
        self.attempted = steps + len(ops)
        self.failed = sum(1 for s in ops if s[FAILED]) + (tracer.step_id is not None)
        if error is not None and self.failed == 0:
            self.attempted += 1  # raised outside any counted operation
            self.failed += 1
        self.busy, self.own = busy_and_self(spans)


class SetUp:
    """Timed set-ups of one workload on one set of inputs.  The first comes
    before the timed phase and gives the episodes their context; the run
    repeats it between episodes, so that the set-up reps, and their median,
    spread over the whole run rather than one moment of it: the host's
    speed changes within seconds."""

    def __init__(self, workload, work: Path, seed: int, model_seed: int):
        self.workload, self.work, self.model_seed = workload, work, model_seed
        self.inputs = workload.inputs(work / "inputs", seed)  # not timed
        self.targets = bbekit_targets()
        self.tracer = Tracer()
        self.times: list[float] = []

    def run(self, traced: bool = False) -> dict:
        """One set-up into a fresh directory; timed unless traced."""
        out = self.work / f"setup{len(self.times)}{'-traced' if traced else ''}"
        out.mkdir(parents=True)
        self.tracer.reset()
        gc.collect()
        with instrument(self.tracer, self.targets, traced):
            start = perf_counter()
            ctx = self.workload.setup(self.inputs, self.model_seed, self.workload.size, out)
            elapsed = perf_counter() - start
        if not traced:
            self.times.append(elapsed)
        return ctx

    def trace(self) -> dict:
        """The figures of the latest set-up, for the per-layer metrics."""
        spans = self.tracer.spans
        return {"busy": busy_and_self(spans)[0], "counters": dict(self.tracer.counters),
                "calls": span_counts(spans)}


def run_episodes(workload, ctx, work: Path, seconds: float, trace: bool,
                 setup: SetUp) -> list[Episode]:
    """Repeat episodes until they have taken `seconds` in all.  Between
    episodes, add a timed set-up rep whenever the reps so far took less
    than SETUP_SHARE of the episode time so far; set-up reps are not
    episode time."""
    targets = bbekit_targets()
    tracer = Tracer()
    episodes: list[Episode] = []
    kinds = (False, True) if trace else (False,)
    while True:
        counts = {kind: sum(1 for e in episodes if e.traced == kind) for kind in kinds}
        if (sum(e.wall_s for e in episodes) >= seconds
                and min(counts.values()) >= MIN_EPISODES):
            while len(setup.times) < SETUP_MIN_REPS:
                setup.run()
            return episodes
        traced = trace and counts[True] < counts[False]
        out = work / f"episode{len(episodes)}"
        out.mkdir(parents=True)
        tracer.reset()
        gc.collect()  # garbage from earlier episodes is not this one's cost
        outcome = error = None
        with instrument(tracer, targets, traced):
            start = perf_counter()
            try:
                outcome = workload.episode(ctx, out)
            except Exception as exc:  # counted in failed, the run goes on
                traceback.print_exc(file=sys.stderr)
                error = exc
            wall = perf_counter() - start
        episodes.append(Episode(tracer, traced, wall, outcome, error))
        shutil.rmtree(out)
        if sum(setup.times) < SETUP_SHARE * sum(e.wall_s for e in episodes):
            setup.run()


def check(episodes: list[Episode], trace: bool) -> list[str]:
    """Correctness gate; returns the failed checks."""
    problems = []
    for kind in ((False, True) if trace else (False,)):
        done = sum(1 for e in episodes if e.traced == kind and e.outcome is not None)
        if done < MIN_EPISODES:
            problems.append(f"only {done} {'traced' if kind else 'untraced'} episodes completed")
    for i, e in enumerate(episodes):
        if any(v != 0.0 for v in e.preservation):
            problems.append(f"episode {i}: preservation {max(e.preservation)!r} != 0.0")
        if type(e.error).__name__ in ("NumericalAbort", "NumericalError"):
            problems.append(f"episode {i}: {e.error}")
        if e.outcome is None:
            continue
        if not e.outcome.losses_finite:
            problems.append(f"episode {i}: non-finite loss")
        if not 0.0 <= e.outcome.test_uar <= 1.0:
            problems.append(f"episode {i}: test UAR {e.outcome.test_uar!r} out of range")
    digests = {e.outcome.digest for e in episodes if e.outcome is not None}
    if len(digests) > 1:
        problems.append(f"same-seed episodes disagree: {len(digests)} distinct digests")
    return problems


def end_to_end(setup_times, episodes: list[Episode], peak_rss_mb: float) -> tuple[dict, dict]:
    """The metrics BENCHMARK.json bounds, and the figures printed beside them."""
    done = [e for e in episodes if e.outcome is not None]
    steps = [s for e in done for s in e.step_s]
    rates = [r for e in done for r in e.eval_rates]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "step_ms.tail": (1e3 * percentile(steps, STEP_TAIL_PERCENTILE), "ms"),
        "eval_samples_per_s": (percentile(rates, EVAL_LOW_PERCENTILE), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "test_uar": (done[0].outcome.test_uar, "UAR"),
    }
    attempted = sum(e.attempted for e in episodes)
    extras = {
        "run_s": (statistics.median(e.wall_s for e in done), "s"),
        "train_samples_per_s": (sum(e.counters["corpus.samples"] for e in done)
                                / sum(steps), "1/s"),
        "step_ms.p50": (1e3 * percentile(steps, 50.0), "ms"),
        "step_ms.tail_percentile": (STEP_TAIL_PERCENTILE, "%"),
        "step_ms.samples": (len(steps), "count"),
        "eval_calls": (len(rates), "count"),
        "failed_frac": (sum(e.failed for e in episodes) / attempted, "ratio"),
        "episodes": (len(episodes), "count"),
    }
    return metrics, extras


def per_layer(setup_trace, episodes: list[Episode]) -> tuple[dict, dict, list[str]]:
    """Per-episode layer figures: medians of time over the traced episodes,
    exact counts from the first of them."""
    traced = [e for e in episodes if e.traced and e.outcome is not None]
    plain = [e for e in episodes if not e.traced and e.outcome is not None]
    first = traced[0]
    problems = []
    if any((e.counters, e.calls) != (first.counters, first.calls) for e in traced[1:]):
        problems.append("counters differ between same-seed traced episodes")

    def busy(name):
        return statistics.median(e.busy.get(name, 0.0) for e in traced)

    def own(name):
        return statistics.median(e.own.get(name, 0.0) for e in traced)

    c = first.counters
    steps = len(first.step_s)

    def loading(figures: str, name: str):
        """Feature loading over the episodes' set-up and the run's first
        episode: together they read every file the workload touches."""
        return setup_trace[figures].get(name, 0) + getattr(episodes[0], figures).get(name, 0)

    feature_calls = loading("calls", "corpus.features")
    reads = loading("calls", "featfile.read_features")
    metrics = {
        "corpus.next_batch.busy_s": (busy("corpus.next_batch"), "s"),
        "corpus.pad_useful_ratio": (c["corpus.frames_real"] / c["corpus.frames_capacity"], "ratio"),
        "corpus.features.hit_ratio": ((feature_calls - reads) / feature_calls, "ratio"),
        "featfile.read_features.calls": (reads, "count"),
        "featfile.read_features.bytes": (loading("counters", "featfile.read_features.bytes"),
                                         "bytes"),
        "featfile.read_features.busy_s": (loading("busy", "featfile.read_features"), "s"),
        "model.forward.busy_s": (busy("model.forward"), "s"),
        "model.logits.busy_s": (busy("model.logits"), "s"),
    }
    for op in FUNCTIONAL_OPS:
        metrics[f"functional.{op}.self_s"] = (own(f"functional.{op}"), "s")
    metrics.update({
        "autodiff.tape_nodes_per_step": (c.get("autodiff.tape_nodes", 0) / steps, "count"),
        "autodiff.backward.busy_s": (busy("autodiff.backward"), "s"),
        "autodiff.unfold1d.busy_s": (busy("autodiff.unfold1d"), "s"),
        "optim.adamw_step.busy_s": (busy("optim.adamw_step"), "s"),
        "optim.params_updated_per_step": (c.get("optim.params_updated", 0) / steps, "count"),
        "expansion.expand.busy_s": (busy("expansion.expand"), "s"),
        "expansion.verify_preservation.busy_s": (busy("expansion.verify_preservation"), "s"),
        "expansion.preservation_max_abs": (max(first.preservation, default=0.0), "abs"),
        "checkpoint.save_checkpoint.busy_s": (busy("checkpoint.save_checkpoint"), "s"),
        "checkpoint.save_checkpoint.bytes": (c.get("checkpoint.save_checkpoint.bytes", 0), "bytes"),
        "checkpoint.load_checkpoint.busy_s": (busy("checkpoint.load_checkpoint"), "s"),
        "checkpoint.load_checkpoint.bytes": (c.get("checkpoint.load_checkpoint.bytes", 0), "bytes"),
        "trainer.evaluate.busy_s": (busy("trainer.evaluate"), "s"),
        "trainer.evaluate.samples": (c.get("trainer.evaluate.samples", 0), "count"),
        "trace.overhead_s": (statistics.median(e.wall_s for e in traced)
                             - statistics.median(e.wall_s for e in plain), "s"),
    })
    names = sorted(set().union(*(e.busy for e in traced)))
    extras = {f"{n}.busy_s": (busy(n), "s") for n in names}
    extras.update({f"{n}.self_s": (own(n), "s") for n in names})
    extras.update({f"counter.{k}": (v, "count") for k, v in sorted(c.items())})
    extras["steps_per_episode"] = (steps, "count")
    extras["traced_episodes"] = (len(traced), "count")
    extras["untraced_episodes"] = (len(plain), "count")
    return metrics, extras, problems


def write_spans(path: Path, episodes: list[Episode]) -> None:
    """The traced episodes' spans, one row per span: name index, start, end
    (seconds from the episode's first span), parent index, step id, failed."""
    out = []
    for i, e in enumerate(episodes):
        if not e.traced:
            continue
        names = sorted({s[NAME] for s in e.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = e.spans[0][START] if e.spans else 0.0
        out.append({"episode": i, "names": names, "columns": list(SPAN_COLUMNS),
                    "spans": [[index[s[NAME]], round(s[START] - t0, 7), round(s[END] - t0, 7),
                               s[PARENT], s[STEP], s[FAILED]] for s in e.spans]})
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: generates the corpora")
    parser.add_argument("--heldout-seed", type=int, default=None,
                        help="model-init and batch-order seed (default: --seed), "
                             "to re-check a claim on a seed not used to make it")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import bbekit
    except ImportError as exc:
        print(f"perfbench: cannot import bbekit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(bbekit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: bbekit comes from {bbekit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.heldout_seed is None:
        args.heldout_seed = args.seed
    model_seed = args.heldout_seed
    load_before = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup = SetUp(workload, work, args.seed, model_seed)
        ctx = setup.run(traced=False)
        if args.trace:
            ctx = setup.run(traced=True)
        setup_trace = setup.trace()
        episodes = run_episodes(workload, ctx, work, args.seconds, bool(args.trace), setup)
        setup_times = setup.times
        # before the reference replays, which are not part of the workload
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = check(episodes, bool(args.trace))
        if any(p.startswith("only ") for p in problems):
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        for name, other in WORKLOADS.items():  # every replay: they are cheap
            problems += reference.check(other, work / f"reference-{name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extras, more = per_layer(setup_trace, episodes)
        problems += more
    else:
        metrics, extras = end_to_end(setup_times, episodes, peak_rss_mb)
    record = {"correct": not problems, "problems": problems,
              "attempted": sum(e.attempted for e in episodes),
              "failed": sum(e.failed for e in episodes),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
              "digest": next(e.outcome.digest for e in episodes if e.outcome is not None),
              "environment": environment(args, load_before),
              "setup_s": setup_times,
              "episodes": [{"traced": e.traced, "wall_s": e.wall_s, "step_s": e.step_s,
                            "eval_rates": e.eval_rates, "eval_samples": e.eval_samples}
                           for e in episodes]}
    results = ROOT / RESULTS_DIR
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        write_spans(results / f"{stem}.spans.json", episodes)

    for name, value in record["environment"].items():
        print(f"{args.workload:20s} {'env.' + name:42s} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:42s} {value:14.6g} {unit}")
    for name, (value, unit) in extras.items():
        print(f"{args.workload:20s} {name:42s} {value:14.6g} {unit}   (not bounded)")
    print(f"{args.workload:20s} {'digest':42s} {record['digest']}")
    print(f"{args.workload:20s} {'record':42s} {RESULTS_DIR}/{stem}.json")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

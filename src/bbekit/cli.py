"""Command-line pipeline: synthetic data, two-stage training, expansion,
evaluation, and reporting.

Artifacts (checkpoints, CSVs, JSON summaries) carry no timestamps; wall
clock and host details go to a `run.meta` sidecar so outputs stay hashable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

# One BLAS thread unless the user chose a count: the CLI's matrices are
# small, and a second thread doubles the CPU time without cutting the
# wall time.  Set before numpy loads (the package imports it lazily).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from .corpus import (SPLITS, SyntheticSpec, generate_synthetic_corpus,  # noqa: E402
                     load_corpus_set, load_manifest, synthetic_samples)
from .errors import (BbekitError, ConfigError, InvariantViolation, open_input,  # noqa: E402
                     parse_json)
from .expansion import FREEZE_POLICIES, MULTIPLIERS, ExpansionSpec  # noqa: E402
from .featfile import float32_frames  # noqa: E402
from .gradcheck import N_PROBES, TOLERANCE, check_model_gradients  # noqa: E402
from .labels import N_CLASSES  # noqa: E402
from .metrics import (ConfusionMatrix, duration_histogram, histogram_csv, report,  # noqa: E402
                      uar)
from .model import EncoderConfig, EncoderModel, dataclass_from  # noqa: E402
from .optim import AdamWConfig  # noqa: E402
from .rngutil import derive_seed  # noqa: E402
from .trainer import (TrainConfig, evaluate, expand_verified, train_multi,  # noqa: E402
                      train_transfer)

FINETUNE_STEPS = 10000
CONFIG_SECTIONS = ("model", "train", "adamw")


# -- config plumbing ---------------------------------------------------------

def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict = {}
    if path:
        with open_input(path, ConfigError, "config") as fh:
            cfg = parse_json(fh.read(), ConfigError, f"config {path}", dict)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = parse_json(raw, ConfigError, f"--set {key}")
        except ConfigError:  # a value that is not JSON is the raw string
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a section")
        node[parts[-1]] = value
    if not all(isinstance(section, dict) for section in cfg.values()):
        raise ConfigError(f"config sections must be JSON objects, got {cfg!r}")
    for name in cfg:
        if name not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section {name!r}; "
                              f"the sections are {', '.join(CONFIG_SECTIONS)}")
    return cfg


def train_config_from(cfg: dict, stage: str, seed: int,
                      n_steps: int | None = None,
                      expansion: ExpansionSpec | None = None,
                      default_steps: int = TrainConfig.n_steps) -> TrainConfig:
    """The "train" and "adamw" sections over the dataclass defaults.  The
    CLI's own policies: its default step count, and frame_cap 0 for no cap.
    The seed, stage, expansion and AdamW settings come from the command and
    the "adamw" section, so a "train" key for one of them is a ConfigError."""
    t = {"n_steps": default_steps, **cfg.get("train", {})}
    if n_steps is not None:
        t["n_steps"] = n_steps
    if type(t.get("frame_cap")) in (int, float) and t["frame_cap"] == 0:
        t["frame_cap"] = None
    adamw = dataclass_from(AdamWConfig, cfg.get("adamw", {}))
    return dataclass_from(TrainConfig, t, adamw=adamw, seed=seed, stage=stage,
                          expansion=expansion)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class RunDir:
    """A command's ``--out`` directory, made at the first write (the first
    read of ``path``), plus the timestamped sidecar.  A command that fails
    before it writes leaves no directory."""

    def __init__(self, out: str, command: str):
        self._out = Path(out)
        self.meta = {"command": command, "started_utc": _utcnow(),
                     "host": platform.node(), "python": platform.python_version()}

    @property
    def path(self) -> Path:
        try:
            self._out.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
            raise ConfigError(f"--out {self._out} cannot be made a directory: {exc}") from exc
        return self._out

    def write_text(self, name: str, text: str) -> None:
        (self.path / name).write_text(text, encoding="utf-8")

    def write_json(self, name: str, payload) -> None:
        self.write_text(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def finish(self) -> None:
        self.meta["finished_utc"] = _utcnow()
        self.write_json("run.meta", self.meta)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary(run: RunDir, cfg_echo: dict, **extra) -> None:
    run.write_json("summary.json", {"config": cfg_echo, **extra})


def _write_training_run(run: RunDir, model: EncoderModel, log, cfg_echo: dict,
                        **extra) -> None:
    """A trained model's checkpoint, loss and validation curves and summary,
    then the run's sidecar."""
    ckpt = run.path / "checkpoint.bbex"
    save_checkpoint(ckpt, model)
    run.write_text("loss.csv", log.loss_csv())
    run.write_text("val.csv", log.val_csv())
    _summary(run, cfg_echo, checkpoint="checkpoint.bbex", checkpoint_sha256=_sha256(ckpt),
             best_step=log.best_step, best_val_uar=log.best_val_uar, **extra)
    run.finish()


def _resolved(model_cfg: EncoderConfig, tcfg: TrainConfig) -> dict:
    """The summary's echo of the settings a run used, defaults included."""
    return {"model": model_cfg.to_dict(), "train": dataclasses.asdict(tcfg)}


def _variant_name(model: EncoderModel) -> str:
    """The name reports give a model: base, or expanded-x<multiplier>,
    with -<policy> when the freeze flags follow one."""
    record = model.expansion
    if record is None:
        return "base"
    policy = record["freeze_policy"]
    return f"expanded-x{record['multiplier']}" + (f"-{policy}" if policy else "")


# -- commands ----------------------------------------------------------------

def cmd_synth_data(args) -> int:
    if args.corpora < 1:
        raise ConfigError(f"--corpora must be >= 1, got {args.corpora}")
    shifts = [args.corpus_shift] * args.corpora
    if args.target_shift is not None:
        shifts[-1] = args.target_shift
    # every spec is checked before anything is written
    specs = [SyntheticSpec(corpus_id=f"syn{i:02d}", n_speakers=args.speakers,
                           samples_per_speaker=args.samples_per_speaker, d=args.dim,
                           class_means_seed=args.class_means_seed, noise_std=args.noise_std,
                           corpus_shift=shift, seed=derive_seed(args.seed, i),
                           frame_rate=args.frame_rate)
             for i, shift in enumerate(shifts)]
    for spec in specs:  # and every frame drawn, which a large --noise-std overflows
        for sample, frames in synthetic_samples(spec, args.out):
            float32_frames(sample.feature_path, frames)
    run = RunDir(args.out, "synth-data")
    manifests = []
    entries = []
    for spec in specs:
        manifest_path = generate_synthetic_corpus(spec, run.path)
        manifests.append(load_manifest(manifest_path, corpus_id=spec.corpus_id))
        entries.append({"corpus_id": spec.corpus_id,
                        "manifest_path": manifest_path.name})
    run.write_json("corpus_set.json", entries)
    bins = duration_histogram(manifests)
    run.write_text("durations.csv", histogram_csv(bins))
    for start in sorted(bins):
        print(f"[{start:>4g} s) {bins[start]:>6d}  " + "#" * min(60, bins[start]))
    _summary(run, {"seed": args.seed, "specs": [dataclasses.asdict(s) for s in specs]},
             corpus_set="corpus_set.json")
    run.finish()
    print(f"wrote {args.corpora} corpora under {run.path}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.set or [])
    run = RunDir(args.out, "train")
    manifests = load_corpus_set(args.corpus_set)
    model_cfg = EncoderConfig.from_dict(cfg.get("model", {}))
    model = EncoderModel.build(model_cfg, args.seed)
    tcfg = train_config_from(cfg, "multi_corpus", args.seed, n_steps=args.steps)
    model, log = train_multi(model, manifests, tcfg)
    _write_training_run(run, model, log, _resolved(model_cfg, tcfg))
    print(f"trained {tcfg.n_steps} steps on {len(manifests)} corpora; "
          f"best val UAR {log.best_val_uar:.4f} at step {log.best_step}")
    return 0


def cmd_expand(args) -> int:
    run = RunDir(args.out, "expand")
    model = load_checkpoint(args.checkpoint)
    spec = ExpansionSpec(multiplier=args.multiplier, freeze_policy=args.freeze_policy)
    expanded = expand_verified(model, spec, args.seed, None)  # raises unless exactly 0.0
    print(f"blocks: {len(model.block_index)} -> {len(expanded.block_index)}, "
          "preservation max|Δ| = 0.0")
    ckpt = run.path / "expanded.bbex"
    save_checkpoint(ckpt, expanded)
    _summary(run, {"multiplier": args.multiplier, "freeze_policy": args.freeze_policy,
                   "seed": args.seed},
             checkpoint="expanded.bbex", checkpoint_sha256=_sha256(ckpt),
             preservation_max_abs_delta=0.0)
    run.finish()
    return 0


def cmd_finetune(args) -> int:
    expansion = None
    if args.expand:
        expansion = ExpansionSpec(
            multiplier=args.multiplier or ExpansionSpec.multiplier,
            freeze_policy=args.freeze_policy or ExpansionSpec.freeze_policy)
    elif args.multiplier is not None or args.freeze_policy is not None:
        raise ConfigError("--multiplier and --freeze-policy need --expand")
    cfg = load_config(args.config, args.set or [])
    run = RunDir(args.out, "finetune")
    model = load_checkpoint(args.checkpoint)
    # the model comes from the checkpoint; a "model" section may only repeat it
    if "model" in cfg and EncoderConfig.from_dict(cfg["model"]) != model.config:
        raise ConfigError(f"the config's model section {cfg['model']} differs from "
                          f"the checkpoint's model {model.config.to_dict()}")
    target = load_manifest(args.target)
    tcfg = train_config_from(cfg, "single_corpus", args.seed, n_steps=args.steps,
                             expansion=expansion, default_steps=FINETUNE_STEPS)
    echo = _resolved(model.config, tcfg)
    model, log = train_transfer(model, target, tcfg, reinit_head=args.reinit_head)
    _write_training_run(run, model, log, echo, variant=_variant_name(model))
    print(f"fine-tuned {tcfg.n_steps} steps on {target.corpus_id} "
          f"({_variant_name(model)}); best val UAR {log.best_val_uar:.4f}")
    return 0


def cmd_eval(args) -> int:
    run = RunDir(args.out, "eval")
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.corpus)
    result = evaluate(model, manifest, args.split)
    variant = args.variant or _variant_name(model)
    payload = {
        "corpus": manifest.corpus_id, "split": args.split, "variant": variant,
        "uar": result["uar"], "n_samples": result["n_samples"],
        "confusion": result["confusion"].counts.tolist(),
        "label_space": "six-class",
    }
    run.write_json("eval.json", payload)
    run.finish()
    print(f"{manifest.corpus_id}/{args.split} [{variant}] "
          f"UAR {result['uar']:.4f} over {result['n_samples']} samples")
    return 0


def cmd_gradcheck(args) -> int:
    config = EncoderConfig(n_blocks=args.blocks, d_model=args.dim,
                           n_heads=args.heads, d_ffn=2 * args.dim)
    model = EncoderModel.build(config, args.seed)
    result = check_model_gradients(model, n_probes=args.probes, seed=args.seed)
    print(f"gradcheck: max rel err {result['max_rel_err']:.3e} "
          f"over {result['n_probes']} probes (worst: {result['worst'][0]})")
    if result["max_rel_err"] >= TOLERANCE:
        raise InvariantViolation(
            f"gradient check failed: {result['max_rel_err']:.3e} >= {TOLERANCE}")
    return 0


# the largest confusion count a report reads: six of them sum in an int64
MAX_COUNT = (2**63 - 1) // N_CLASSES


def _counts(value) -> bool:
    """Whether ``value`` is a 6x6 list of integer counts in [0, MAX_COUNT],
    not all zero."""
    return (isinstance(value, list) and len(value) == N_CLASSES
            and all(isinstance(row, list) and len(row) == N_CLASSES
                    and all(type(c) is int and 0 <= c <= MAX_COUNT for c in row)
                    for row in value)
            and any(map(any, value)))


def read_eval_result(path: str) -> tuple[tuple[str, str, str], float]:
    """An ``eval.json``'s (corpus, split, variant) key and its UAR, which
    ``metrics.uar`` computes from the file's ``confusion``, a 6x6 matrix of
    integer counts.  The file's ``uar`` must be that value; any other
    content is a ConfigError naming the file."""
    with open_input(path, ConfigError, "eval result") as fh:
        payload = parse_json(fh.read(), ConfigError, f"eval result {path}", dict)
    # a table name; JSON can spell a lone surrogate, which UTF-8 cannot write
    name = (lambda v: isinstance(v, str) and v.isprintable(), "a printable string")
    checks = {
        "corpus": name,
        "split": (lambda v: isinstance(v, str) and v in SPLITS, f"one of {', '.join(SPLITS)}"),
        "variant": name,
        "uar": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
        "confusion": (_counts, f"{N_CLASSES} rows of {N_CLASSES} counts >= 0, not all 0"),
    }
    for key, (valid, kind) in checks.items():
        if key not in payload:
            raise ConfigError(f"eval result {path} lacks key {key!r}")
        if not valid(payload[key]):
            raise ConfigError(f"eval result {path}: {key!r} must be {kind}, "
                              f"got {payload[key]!r}")
    score = uar(ConfusionMatrix(payload["confusion"]))
    if payload["uar"] != score:
        raise ConfigError(f"eval result {path}: 'uar' {payload['uar']!r} is not the UAR of "
                          f"its confusion matrix, {score!r}")
    return (payload["corpus"], payload["split"], payload["variant"]), score


def cmd_report(args) -> int:
    run = RunDir(args.out, "report")
    scores: dict[tuple[str, str, str], tuple[str, float]] = {}
    for path in args.results:
        key, score = read_eval_result(path)
        if key in scores:
            raise ConfigError(f"eval results {scores[key][0]} and {path} both score variant "
                              f"{key[2]!r} on {key[0]}/{key[1]}")
        scores[key] = path, score
    # a row per corpus, or per corpus and split where the results hold several
    several = len({split for _, split, _ in scores}) > 1
    results: dict[str, dict[str, float]] = {}
    for (corpus, split, variant), (_, score) in scores.items():
        results.setdefault(f"{corpus} ({split})" if several else corpus, {})[variant] = score
    text, csv = report(results)
    run.write_text("report.txt", text)
    run.write_text("report.csv", csv)
    run.finish()
    print(text, end="")
    return 0


# -- argument parsing --------------------------------------------------------

def _common(sub: argparse.ArgumentParser, config=False, seed=True, out=True) -> None:
    """The shared flags, each given only to the subcommands that read it."""
    if config:
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config entry (dotted keys)")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if out:
        sub.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbekit",
        description="Depth-expandable transformer encoders for six-class "
                    "emotion recognition across corpora.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth-data", help="generate synthetic corpora")
    _common(p)
    p.add_argument("--corpora", type=int, default=3)
    p.add_argument("--speakers", type=int, default=SyntheticSpec.n_speakers)
    p.add_argument("--samples-per-speaker", type=int,
                   default=SyntheticSpec.samples_per_speaker, help="per speaker and class")
    p.add_argument("--dim", type=int, default=SyntheticSpec.d)
    p.add_argument("--noise-std", type=float, default=SyntheticSpec.noise_std)
    p.add_argument("--corpus-shift", type=float, default=SyntheticSpec.corpus_shift)
    p.add_argument("--target-shift", type=float, default=None,
                   help="override the shift of the last corpus")
    p.add_argument("--class-means-seed", type=int, default=SyntheticSpec.class_means_seed)
    p.add_argument("--frame-rate", type=float, default=SyntheticSpec.frame_rate)
    p.set_defaults(func=cmd_synth_data)

    p = subs.add_parser("train", help="multi-corpus round-robin training")
    _common(p, config=True)
    p.add_argument("--corpus-set", required=True, help="corpus set JSON file")
    p.add_argument("--steps", type=int, default=None,
                   help=f"override step count (default {TrainConfig.n_steps})")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("expand", help="duplicate blocks behind zero gates")
    _common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--multiplier", type=int, default=ExpansionSpec.multiplier,
                   choices=MULTIPLIERS)
    p.add_argument("--freeze-policy", default=ExpansionSpec.freeze_policy,
                   choices=FREEZE_POLICIES)
    p.set_defaults(func=cmd_expand)

    p = subs.add_parser("finetune", help="single-corpus transfer fine-tuning")
    _common(p, config=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", required=True, help="target corpus manifest")
    p.add_argument("--steps", type=int, default=None,
                   help=f"override step count (default {FINETUNE_STEPS})")
    p.add_argument("--expand", action="store_true",
                   help="expand the model before fine-tuning")
    p.add_argument("--multiplier", type=int, default=None, choices=MULTIPLIERS,
                   help=f"with --expand (default {ExpansionSpec.multiplier})")
    p.add_argument("--freeze-policy", default=None, choices=FREEZE_POLICIES,
                   help=f"with --expand (default {ExpansionSpec.freeze_policy})")
    p.add_argument("--reinit-head", action="store_true",
                   help="draw a fresh six-class head instead of keeping the loaded one")
    p.set_defaults(func=cmd_finetune)

    p = subs.add_parser("eval", help="evaluate a checkpoint on one split")
    _common(p, seed=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="corpus manifest")
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--variant", default=None, help="variant name for reports")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("gradcheck", help="finite-difference gradient check")
    _common(p, out=False)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--probes", type=int, default=N_PROBES)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("report", help="combine eval results into a table")
    _common(p, seed=False)
    p.add_argument("results", nargs="+", help="eval.json files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BbekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

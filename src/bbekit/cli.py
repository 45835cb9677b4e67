"""Command-line pipeline: synthetic data, two-stage training, expansion,
evaluation, and reporting.

Artifacts (checkpoints, CSVs, JSON summaries) carry no timestamps; wall
clock and host details go to a `run.meta` sidecar so outputs stay hashable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (SyntheticSpec, generate_synthetic_corpus, load_corpus_set,
                     load_manifest)
from .errors import BbekitError, ConfigError, InvariantViolation
from .expansion import FREEZE_POLICIES, ExpansionSpec
from .gradcheck import TOLERANCE, check_model_gradients
from .metrics import duration_histogram, histogram_csv, report
from .model import EncoderConfig, EncoderModel, dataclass_from
from .optim import AdamWConfig
from .rngutil import derive_seed
from .trainer import TrainConfig, evaluate, expand_verified, train_multi, train_transfer

FINETUNE_STEPS = 10000


# -- config plumbing ---------------------------------------------------------

def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict = {}
    if path:
        try:
            cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
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
    return cfg


def train_config_from(cfg: dict, stage: str, seed: int,
                      n_steps: int | None = None,
                      expansion: ExpansionSpec | None = None,
                      default_steps: int = TrainConfig.n_steps) -> TrainConfig:
    """The "train" and "adamw" sections over the dataclass defaults.  The
    CLI's own policies: its default step count, and frame_cap 0 for no cap."""
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
    """Output directory plus the timestamped sidecar."""

    def __init__(self, out: str, command: str):
        self.path = Path(out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.meta = {"command": command, "started_utc": _utcnow(),
                     "host": platform.node(), "python": platform.python_version()}

    def write_text(self, name: str, text: str) -> Path:
        target = self.path / name
        target.write_text(text, encoding="utf-8")
        return target

    def write_json(self, name: str, payload: dict) -> Path:
        return self.write_text(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def finish(self) -> None:
        self.meta["finished_utc"] = _utcnow()
        (self.path / "run.meta").write_text(
            json.dumps(self.meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _summary(run: RunDir, cfg_echo: dict, **extra) -> None:
    run.write_json("summary.json", {"config": cfg_echo, **extra})


def _variant_name(model: EncoderModel) -> str:
    if model.expansion is None:
        return "base"
    return f"expanded-x{model.expansion['multiplier']}-{model.expansion['freeze_policy']}"


# -- commands ----------------------------------------------------------------

def cmd_synth_data(args) -> int:
    run = RunDir(args.out, "synth-data")
    manifests = []
    entries = []
    for i in range(args.corpora):
        shift = args.corpus_shift
        if args.target_shift is not None and i == args.corpora - 1:
            shift = args.target_shift
        spec = SyntheticSpec(
            corpus_id=f"syn{i:02d}",
            n_speakers=args.speakers,
            samples_per_speaker=args.samples_per_speaker,
            d=args.dim,
            class_means_seed=args.class_means_seed,
            noise_std=args.noise_std,
            corpus_shift=shift,
            seed=derive_seed(args.seed, i),
            frame_rate=args.frame_rate,
        )
        manifest_path = generate_synthetic_corpus(spec, run.path)
        manifests.append(load_manifest(manifest_path, corpus_id=spec.corpus_id))
        entries.append({"corpus_id": spec.corpus_id,
                        "manifest_path": manifest_path.name})
    run.write_text("corpus_set.json",
                   json.dumps(entries, sort_keys=True, indent=2) + "\n")
    bins = duration_histogram(manifests, bin_width_s=1.0)
    run.write_text("durations.csv", histogram_csv(bins))
    for start in sorted(bins):
        print(f"[{start:>4g} s) {bins[start]:>6d}  " + "#" * min(60, bins[start]))
    _summary(run, {"corpora": args.corpora, "seed": args.seed},
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
    ckpt = run.path / "checkpoint.bbex"
    save_checkpoint(ckpt, model)
    run.write_text("loss.csv", log.loss_csv())
    run.write_text("val.csv", log.val_csv())
    _summary(run, {"model": model_cfg.to_dict(), "train": cfg.get("train", {}),
                   "adamw": cfg.get("adamw", {}), "seed": args.seed,
                   "n_steps": tcfg.n_steps},
             checkpoint="checkpoint.bbex", checkpoint_sha256=_sha256(ckpt),
             best_step=log.best_step, best_val_uar=log.best_val_uar)
    run.finish()
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
    target = load_manifest(args.target)
    tcfg = train_config_from(cfg, "single_corpus", args.seed, n_steps=args.steps,
                             expansion=expansion, default_steps=FINETUNE_STEPS)
    model, log = train_transfer(model, target, tcfg, reinit_head=args.reinit_head)
    ckpt = run.path / "checkpoint.bbex"
    save_checkpoint(ckpt, model)
    run.write_text("loss.csv", log.loss_csv())
    run.write_text("val.csv", log.val_csv())
    _summary(run, {"train": cfg.get("train", {}), "adamw": cfg.get("adamw", {}),
                   "seed": args.seed, "n_steps": tcfg.n_steps,
                   "expansion": expansion.to_dict() if expansion else None},
             checkpoint="checkpoint.bbex", checkpoint_sha256=_sha256(ckpt),
             variant=_variant_name(model),
             best_step=log.best_step, best_val_uar=log.best_val_uar)
    run.finish()
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


def cmd_report(args) -> int:
    run = RunDir(args.out, "report")
    results: dict[str, dict[str, float]] = {}
    for path in args.results:
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"cannot read eval result {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"eval result {path} must hold a JSON object")
        for key in ("corpus", "variant", "uar"):
            if key not in payload:
                raise ConfigError(f"eval result {path} lacks key {key!r}")
            value = payload[key]
            if key == "uar":
                valid, kind = type(value) in (int, float) and 0 <= value <= 1, "a number in [0, 1]"
            else:  # a table name; JSON can spell a lone surrogate, which UTF-8 cannot write
                valid, kind = isinstance(value, str) and value.isprintable(), "a printable string"
            if not valid:
                raise ConfigError(f"eval result {path}: {key!r} must be {kind}, got {value!r}")
        results.setdefault(payload["corpus"], {})[payload["variant"]] = payload["uar"]
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
    p.add_argument("--multiplier", type=int, default=ExpansionSpec.multiplier, choices=(2, 3))
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
    p.add_argument("--multiplier", type=int, default=None, choices=(2, 3),
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
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--variant", default=None, help="variant name for reports")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("gradcheck", help="finite-difference gradient check")
    _common(p, out=False)
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--probes", type=int, default=100)
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

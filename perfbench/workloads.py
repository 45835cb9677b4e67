"""The benchmark's workloads: seeded synthetic inputs, the set-up that
loads them, and one episode of the recipe phase each workload times.

The program sees only the files `inputs` writes.  Every corpus parameter is
a pure function of the workload seed; model initialisation and batch order
come from the model seed.  An episode is deterministic for a given set-up,
so repeated episodes must produce identical logs and checkpoint bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bbekit import checkpoint, trainer
from bbekit.corpus import SyntheticSpec, generate_synthetic_corpus, load_manifest
from bbekit.expansion import ExpansionSpec
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel
from bbekit.optim import AdamWConfig
from bbekit.rngutil import derive_seed
from bbekit.trainer import TrainConfig

# The shapes of acceptance criterion 7: four source corpora, 10 frames/s,
# 5-50 frames per sample, a 4-block d=16 encoder, batch 8, frame cap 50.
BATCH_SIZE = 8
FRAME_CAP = 50
EVAL_EVERY = 100
ADAMW = AdamWConfig(learning_rate=1e-2)

HEADONLY_EVAL_ROUNDS = 2
# Class means are scaled up from the criterion-7 corpora so that a correct
# model reaches a test UAR near 1.0 on almost every seed within an episode.
# test_uar then has a small spread across seeds, but it is a coarse guard:
# the class can be read from mean-pooled input alone.  The fine guard
# against a fast but wrong change is the fixed-seed replay in reference.py.
MEAN_SCALE = 2.0
CONV_MEAN_SCALE = 4.0
SPLITS = ("train", "val", "test")


def c07_model() -> EncoderConfig:
    return EncoderConfig(n_blocks=4, d_model=16, n_heads=2, d_ffn=32)


def conv_model() -> EncoderConfig:
    """Two stride-2 conv layers over 4-dim, 40 frames/s input: up to 200
    raw frames reach the blocks as up to 49."""
    return EncoderConfig(n_blocks=4, d_model=16, n_heads=2, d_ffn=32,
                         frontend="conv", conv_in_dim=4,
                         conv_layers=[ConvLayerSpec(16, 3, 2), ConvLayerSpec(16, 3, 2)])


# -- seeded inputs --------------------------------------------------------------

def source_specs(seed: int) -> list[SyntheticSpec]:
    return [SyntheticSpec(corpus_id=f"src{i}", n_speakers=6, samples_per_speaker=3,
                          d=16, class_means_seed=derive_seed(seed, 777),
                          noise_std=0.3, corpus_shift=0.3 if i else 0.0,
                          seed=derive_seed(seed, i), frame_rate=10.0,
                          speaker_std=0.1, mean_scale=MEAN_SCALE)
            for i in range(4)]


def target_spec(seed: int) -> SyntheticSpec:
    """Criterion 7's shifted transfer target, with its noise and speaker
    spread lowered to the source corpora's so that 40 fine-tuning steps
    converge."""
    return SyntheticSpec(corpus_id="target", n_speakers=5, samples_per_speaker=4,
                         d=16, class_means_seed=derive_seed(seed, 777),
                         noise_std=0.3, corpus_shift=1.2,
                         seed=derive_seed(seed, 99), frame_rate=10.0,
                         speaker_std=0.1, frac_test=0.4, frac_val=0.2,
                         mean_scale=MEAN_SCALE)


def conv_specs(seed: int) -> list[SyntheticSpec]:
    """A conv-frontend source corpus and a shifted target, 20-200 frames."""
    return [SyntheticSpec(corpus_id=corpus_id, n_speakers=n_speakers, samples_per_speaker=3,
                          d=4, class_means_seed=derive_seed(seed, 778),
                          noise_std=0.1, corpus_shift=shift,
                          seed=derive_seed(seed, 200 + i), frame_rate=40.0,
                          speaker_std=0.05, mean_scale=CONV_MEAN_SCALE,
                          frac_test=0.3, frac_val=0.2)
            for i, (corpus_id, shift, n_speakers) in enumerate(
                (("csrc", 0.0, 5), ("ctarget", 0.5, 10)))]


def _write(specs, root: Path) -> list[Path]:
    """Write the corpora; returns their manifest paths."""
    return [generate_synthetic_corpus(spec, root / spec.corpus_id) for spec in specs]


def _stage1_checkpoint(config: EncoderConfig, sources: list, model_seed: int,
                       n_steps: int, path: Path) -> trainer.TrainLog:
    model = EncoderModel.build(config, seed=derive_seed(model_seed, 31))
    model, log = trainer.train_multi(model, sources, TrainConfig(
        adamw=ADAMW, n_steps=n_steps, batch_size=BATCH_SIZE,
        frame_cap=FRAME_CAP, eval_every=n_steps,
        seed=derive_seed(model_seed, 7), selection="last"))
    checkpoint.save_checkpoint(path, model)
    return log


# -- set-ups and episodes -------------------------------------------------------

@dataclass(frozen=True)
class Size:
    """Training steps behind a workload's set-up checkpoint and per episode."""

    setup_steps: int
    steps: int


@dataclass
class Outcome:
    log: trainer.TrainLog
    checkpoint_sha256: str
    test_uar: float
    model: EncoderModel

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.log.loss_csv(), self.log.val_csv(), self.checkpoint_sha256):
            h.update(part.encode())
        return h.hexdigest()

    @property
    def losses_finite(self) -> bool:
        return all(math.isfinite(v) for _, _, v in self.log.losses)


def _save(model: EncoderModel, path: Path) -> str:
    checkpoint.save_checkpoint(path, model)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finetune_config(model_seed: int, n_steps: int, spec: ExpansionSpec,
                     frame_cap: int | None) -> TrainConfig:
    return TrainConfig(adamw=ADAMW, n_steps=n_steps, batch_size=BATCH_SIZE,
                       frame_cap=frame_cap, eval_every=EVAL_EVERY,
                       seed=derive_seed(model_seed, 1000), stage="single_corpus",
                       selection="best", expansion=spec)


def inputs_stage1(root: Path, seed: int) -> dict:
    return {"sources": _write(source_specs(seed), root)}


def setup_stage1(inputs: dict, model_seed: int, size: Size, out: Path) -> dict:
    """Load the corpora and score the untrained model on every split: the
    chance-level baseline, which also reads every feature file through the
    program's own cache."""
    sources = [load_manifest(p) for p in inputs["sources"]]
    model = EncoderModel.build(c07_model(), seed=derive_seed(model_seed, 31))
    for manifest in sources:
        for split in SPLITS:
            trainer.evaluate(model, manifest, split)
    return {"sources": sources, "model_seed": model_seed, "steps": size.steps,
            "setup_log": None}


def episode_stage1(ctx: dict, out: Path) -> Outcome:
    model = EncoderModel.build(c07_model(), seed=derive_seed(ctx["model_seed"], 31))
    model, log = trainer.train_multi(model, ctx["sources"], TrainConfig(
        adamw=ADAMW, n_steps=ctx["steps"], batch_size=BATCH_SIZE,
        frame_cap=FRAME_CAP, eval_every=EVAL_EVERY,
        seed=derive_seed(ctx["model_seed"], 7), selection="best"))
    uars = [trainer.evaluate(model, m, "test")["uar"] for m in ctx["sources"]]
    return Outcome(log, _save(model, out / "stage1.bbex"), sum(uars) / len(uars), model)


def inputs_expand(root: Path, seed: int) -> dict:
    return {"sources": _write(source_specs(seed), root),
            "target": _write([target_spec(seed)], root)}


def _setup_transfer(config: EncoderConfig, inputs: dict, model_seed: int,
                    size: Size, out: Path) -> dict:
    """Load the corpora and train the stage-1 model the episode expands."""
    sources = [load_manifest(p) for p in inputs["sources"]]
    (target,) = [load_manifest(p) for p in inputs["target"]]
    path = out / "stage1.bbex"
    log = _stage1_checkpoint(config, sources, model_seed, size.setup_steps, path)
    return {"target": target, "model_seed": model_seed, "steps": size.steps,
            "checkpoint": path, "setup_log": log}


def setup_expand(inputs: dict, model_seed: int, size: Size, out: Path) -> dict:
    return _setup_transfer(c07_model(), inputs, model_seed, size, out)


def episode_expand(ctx: dict, out: Path) -> Outcome:
    model = checkpoint.load_checkpoint(ctx["checkpoint"])
    model, log = trainer.train_transfer(model, ctx["target"], _finetune_config(
        ctx["model_seed"], ctx["steps"], ExpansionSpec(2, "freeze-original"), FRAME_CAP))
    sha = _save(model, out / "expanded.bbex")
    return Outcome(log, sha, trainer.evaluate(model, ctx["target"], "test")["uar"], model)


def inputs_headonly(root: Path, seed: int) -> dict:
    source, target = _write(conv_specs(seed), root)
    return {"sources": [source], "target": [target]}


def setup_headonly(inputs: dict, model_seed: int, size: Size, out: Path) -> dict:
    return _setup_transfer(conv_model(), inputs, model_seed, size, out)


def episode_headonly(ctx: dict, out: Path) -> Outcome:
    model = checkpoint.load_checkpoint(ctx["checkpoint"])
    model, log = trainer.train_transfer(model, ctx["target"], _finetune_config(
        ctx["model_seed"], ctx["steps"], ExpansionSpec(2, "head-only"), None))
    sha = _save(model, out / "headonly.bbex")
    for _ in range(HEADONLY_EVAL_ROUNDS):
        scores = {split: trainer.evaluate(model, ctx["target"], split)["uar"]
                  for split in SPLITS}
    return Outcome(log, sha, scores["test"], model)


@dataclass(frozen=True)
class Workload:
    """`inputs` writes the seeded corpora (not timed); `setup` loads them and
    trains the set-up checkpoint (timed as setup_s); `episode` is the timed
    recipe phase.  `size` is the benchmark's; `reference_size` is the short
    replay whose numbers reference.json records."""

    name: str
    inputs: Callable[[Path, int], dict]
    setup: Callable[[dict, int, Size, Path], dict]
    episode: Callable[[dict, Path], Outcome]
    size: Size
    reference_size: Size


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("stage1-rr", inputs_stage1, setup_stage1, episode_stage1,
             Size(0, 50), Size(0, 8)),
    Workload("expand-x2-frozen", inputs_expand, setup_expand, episode_expand,
             Size(60, 40), Size(8, 6)),
    Workload("headonly-conv-eval", inputs_headonly, setup_headonly, episode_headonly,
             Size(120, 60), Size(8, 6)),
)}

"""Two-stage training: multi-corpus round-robin, then single-corpus
transfer fine-tuning with optional depth expansion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import functional as F
from .corpus import (CorpusIterator, CorpusManifest, length_mask, next_batch, pad_frames,
                     round_robin_schedule)
from .errors import ConfigError, EvalError, InvariantViolation, NumericalAbort, NumericalError
from .expansion import ExpansionSpec, expand, preservation_probes, verify_preservation
from .labels import N_CLASSES
from .metrics import confusion, uar
from .model import EncoderModel
from .optim import AdamWConfig, adamw_step
from .rngutil import derive_seed

LOSS_TAIL = 5
# evaluate runs the length-sorted split through no-grad batches of this size
EVAL_CHUNK = 16
# the most samples a run may plan to draw (n_steps * batch_size), drawn
# before step 1: 100 times finetune's default of 10,000 steps of 16
MAX_PLANNED_DRAWS = 1 << 24


@dataclass
class TrainConfig:
    adamw: AdamWConfig = field(default_factory=AdamWConfig)
    n_steps: int = 3000
    batch_size: int = 16
    frame_cap: int | None = 512
    eval_every: int = 100
    seed: int = 0
    stage: str = "multi_corpus"  # "multi_corpus" | "single_corpus"
    expansion: ExpansionSpec | None = None
    selection: str = "best"  # "best" | "last"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_steps * self.batch_size > MAX_PLANNED_DRAWS:
            raise ConfigError(f"n_steps {self.n_steps} * batch_size {self.batch_size} "
                              f"plans more than {MAX_PLANNED_DRAWS} draws")
        if self.frame_cap is not None and self.frame_cap < 1:
            raise ConfigError(f"frame_cap must be >= 1 or None (no cap), got {self.frame_cap}")
        if self.stage not in ("multi_corpus", "single_corpus"):
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.selection not in ("best", "last"):
            raise ConfigError(f"unknown selection rule {self.selection!r}")


@dataclass
class TrainLog:
    losses: list[tuple[int, str, float]] = field(default_factory=list)
    vals: list[tuple[int, str, float]] = field(default_factory=list)
    best_step: int | None = None
    best_val_uar: float | None = None

    def add_loss(self, step: int, corpus_id: str, loss: float) -> None:
        if self.losses and step <= self.losses[-1][0]:
            raise InvariantViolation(f"non-increasing step {step} in loss log")
        self.losses.append((step, corpus_id, loss))

    def add_val(self, step: int, corpus_id: str, val_uar: float) -> None:
        self.vals.append((step, corpus_id, val_uar))

    def loss_tail(self) -> list[float]:
        """The last LOSS_TAIL losses, oldest first, for a ``NumericalAbort``."""
        return [v for _, _, v in self.losses[-LOSS_TAIL:]]

    def loss_csv(self) -> str:
        lines = ["step,corpus,loss"]
        lines += [f"{s},{c},{repr(v)}" for s, c, v in self.losses]
        return "\n".join(lines) + "\n"

    def val_csv(self) -> str:
        lines = ["step,corpus,val_uar"]
        lines += [f"{s},{c},{repr(v)}" for s, c, v in self.vals]
        return "\n".join(lines) + "\n"

    def val_curve(self, corpus_id: str) -> list[tuple[int, float]]:
        return [(s, v) for s, c, v in self.vals if c == corpus_id]


def _sorted_chunks(frames: list[np.ndarray]):
    """Yield (indices, padded features, mask) for ``frames`` sorted stably
    by frame count and cut into batches of EVAL_CHUNK, so each batch
    carries little padding."""
    order = sorted(range(len(frames)), key=lambda i: frames[i].shape[0])
    for start in range(0, len(order), EVAL_CHUNK):
        chunk = order[start:start + EVAL_CHUNK]
        yield (chunk,) + pad_frames([frames[i] for i in chunk])


def evaluate(model: EncoderModel, manifest: CorpusManifest,
             split: str = "test") -> dict:
    """Argmax over per-sample logits; returns {"uar", "confusion", "n_samples"}.

    The split runs through ``model.logits`` in length-sorted batches of
    EVAL_CHUNK.
    """
    samples = manifest.split_samples(split)
    if not samples:
        raise EvalError(f"{manifest.corpus_id}: split {split!r} is empty")
    preds, labels = [], []
    for chunk, features, pad_mask in _sorted_chunks([manifest.features(s) for s in samples]):
        preds.extend(np.argmax(model.logits(features, pad_mask), axis=1).tolist())
        labels.extend(samples[i].mapped_class for i in chunk)
    cm = confusion(preds, labels, N_CLASSES)
    return {"uar": uar(cm), "confusion": cm, "n_samples": len(samples)}


def _cache_kind(model: EncoderModel) -> str:
    """What the fill keeps of each train sample, read from the freeze flags:
    "pooled" (the pooled embedding) when only the head trains, else "rows"
    (the frontend's output rows; for an identity frontend, the frames).

    Leading frozen blocks are not cached: the rows stop at the frontend.
    """
    trainable = (name for name, entry in model.store.items() if not entry.frozen)
    return "pooled" if all(name.startswith("head.") for name in trainable) else "rows"


def _fill_train_cache(model: EncoderModel, iterators: dict[str, CorpusIterator],
                      kind: str) -> dict[str, np.ndarray | list[np.ndarray]]:
    """Each corpus iterator's crops through the fixed part that ``kind``
    names, from length-sorted no-grad batches of EVAL_CHUNK, as one cache
    per corpus id in its iterator's sample order, so that a batch's draws
    index it: for "pooled", one [n_train, d_model] array of the pooled
    embeddings; for "rows", a list of each crop's frontend rows,
    [n, d_model] (the crop's own frames under an identity frontend).

    The iterator draws each train sample once per epoch, so when a
    corpus's steps times ``batch_size`` reach its split size (as at the
    CLI's default step counts) this runs only samples the loop would draw
    anyway, each once instead of once per draw.  A non-finite frame, or a
    crop shorter than the conv frontend's receptive field, is an
    ``InputError``; a non-finite value the model computes is a
    ``NumericalAbort`` at step 0 naming the corpus.
    """
    cache = {}
    for corpus_id, iterator in iterators.items():
        n = len(iterator.samples)
        values = np.empty((n, model.config.d_model)) if kind == "pooled" else [None] * n
        try:
            with ad.no_grad():
                for chunk, features, pad_mask in _sorted_chunks(iterator.crops()):
                    rows, mask = model.frontend_rows(features, pad_mask)
                    if kind == "pooled":
                        values[chunk] = model.encode_rows(rows, mask).data
                    else:
                        computed = np.split(rows.data, np.cumsum(mask.sum(axis=1))[:-1])
                        for i, value in zip(chunk, computed):
                            values[i] = value
        except NumericalError as exc:
            raise NumericalAbort(f"embedding the train split failed: {exc}", step=0,
                                 corpus_id=corpus_id, loss_tail=[]) from exc
        cache[corpus_id] = values
    return cache


def _cached_loss(model: EncoderModel, batch, values: np.ndarray | list[np.ndarray],
                 kind: str) -> ad.Tensor:
    """Unweighted mean cross-entropy over the batch, on one tape, from its
    corpus's cached values at its draws: the tape holds the head and the
    cross-entropy, and for cached rows also the blocks and pooling, which
    run on the samples' rows concatenated in batch order.  Pooled
    embeddings are gathered with one indexing op.  From cached rows this
    is bit for bit the loss of ``forward`` on the batch's padded frames;
    from pooled embeddings it agrees to rounding."""
    if kind == "pooled":
        pooled = ad.Tensor(values[batch.index])
    else:
        parts = [values[i] for i in batch.index]
        pooled = model.encode_rows(ad.Tensor(np.concatenate(parts)),
                                   length_mask([len(p) for p in parts]))
    return F.softmax_cross_entropy(model.head(pooled), batch.labels)


def _eval_all(model: EncoderModel, manifests: list[CorpusManifest], step: int,
              log: TrainLog) -> None:
    """Record one val-UAR row per corpus, and ``step`` as the best step when
    its mean over corpora beats every earlier one."""
    scores = []
    for manifest in manifests:
        try:
            score = evaluate(model, manifest, "val")["uar"]
        except NumericalError as exc:
            raise NumericalAbort(f"evaluation failed: {exc}", step=step,
                                 corpus_id=manifest.corpus_id,
                                 loss_tail=log.loss_tail()) from exc
        log.add_val(step, manifest.corpus_id, score)
        scores.append(score)
    mean = float(np.mean(scores))
    if log.best_val_uar is None or mean > log.best_val_uar:
        log.best_step, log.best_val_uar = step, mean


def _train_loop(model: EncoderModel, manifests: list[CorpusManifest],
                schedule: list[str], cfg: TrainConfig) -> TrainLog:
    # counting the trainable parameters lays out the store's flat AdamW
    # buffers, so no training step does
    if model.store.n_params(only_trainable=True) == 0:
        raise ConfigError("no trainable parameters under the active freeze flags")
    thawed = [name for name, entry in model.store.items()
              if name.startswith("frontend.") and not entry.frozen]
    if thawed:
        raise ConfigError(f"the frontend is fixed, but {thawed[0]} is trainable")
    receptive_field = model.config.min_input_length
    if cfg.frame_cap is not None and cfg.frame_cap < receptive_field:
        raise ConfigError(f"frame_cap {cfg.frame_cap} crops every sample below the conv "
                          f"receptive field of {receptive_field} frames")
    # each iterator draws the epoch orders of all its steps now, so no step does
    iterators = {m.corpus_id: CorpusIterator(m, "train", derive_seed(cfg.seed, i),
                                             planned=schedule.count(m.corpus_id) * cfg.batch_size,
                                             frame_cap=cfg.frame_cap)
                 for i, m in enumerate(manifests)}
    log = TrainLog()
    _eval_all(model, manifests, 0, log)  # step 0 is the first best
    # only "best" restores, so only "best" copies the store at each new best
    best = model.store.snapshot() if cfg.selection == "best" else None
    # the frontend, and under head-only the whole encoder, is a fixed
    # function of the input, so each train sample runs through it once
    kind = _cache_kind(model)
    cache = _fill_train_cache(model, iterators, kind)

    for step, corpus_id in enumerate(schedule, start=1):
        batch = next_batch(iterators[corpus_id], cfg.batch_size)
        try:
            loss = _cached_loss(model, batch, cache[corpus_id], kind)
            value = loss.item()
            loss.backward()
            adamw_step(model.store, cfg.adamw)
        except NumericalError as exc:
            raise NumericalAbort(str(exc), step=step, corpus_id=corpus_id,
                                 loss_tail=log.loss_tail()) from exc
        log.add_loss(step, corpus_id, value)
        if step % cfg.eval_every == 0 or step == len(schedule):
            _eval_all(model, manifests, step, log)
            if log.best_step == step and best is not None:
                best = model.store.snapshot()

    if best is not None:
        model.store.restore(best)
    return log


def train_multi(model: EncoderModel, manifests: list[CorpusManifest],
                cfg: TrainConfig) -> tuple[EncoderModel, TrainLog]:
    """Round-robin over the corpus list, one batch per step.  Training
    leaves the model's freeze flags as they are."""
    if cfg.stage != "multi_corpus":
        raise ConfigError(f"train_multi needs stage multi_corpus, got {cfg.stage!r}")
    if cfg.expansion is not None:
        raise ConfigError("train_multi does not expand; expansion belongs to train_transfer")
    if not manifests:
        raise ConfigError("train_multi needs at least one corpus")
    ids = [m.corpus_id for m in manifests]
    for corpus_id in ids:  # the schedule, iterators and val log are keyed by id
        if ids.count(corpus_id) > 1:
            raise ConfigError(f"corpus id {corpus_id!r} names more than one corpus")
    schedule = round_robin_schedule(ids, cfg.n_steps)
    log = _train_loop(model, manifests, schedule, cfg)
    return model, log


def expand_verified(model: EncoderModel, spec: ExpansionSpec, seed: int,
                    corpus_id: str | None) -> EncoderModel:
    """``expand``, then ``verify_preservation`` on seeded probes: a nonzero
    result is an ``InvariantViolation``, a non-finite one a step-0
    ``NumericalAbort``.  Both run by this module's names, which tracers wrap."""
    expanded = expand(model, spec)
    try:
        worst = verify_preservation(model, expanded, preservation_probes(model, seed))
    except NumericalError as exc:
        raise NumericalAbort(f"preservation check failed: {exc}", step=0,
                             corpus_id=corpus_id) from exc
    if worst != 0.0:
        raise InvariantViolation(f"expansion changed outputs: max |delta| = {worst!r}")
    return expanded


def train_transfer(model: EncoderModel, target: CorpusManifest,
                   cfg: TrainConfig,
                   reinit_head: bool = False) -> tuple[EncoderModel, TrainLog]:
    """Single-corpus fine-tuning of a loaded model, optionally expanding it
    first.  The expansion's preservation check must come back exactly 0.0,
    and its freeze policy sets which parameters train; without expansion
    the model's freeze flags are left as they are.

    The head keeps the fixed six-class label space, whichever classes the
    target contains.  By default it is kept, so the step-0 evaluation equals
    the loaded model's zero-shot score; ``reinit_head`` draws a fresh one.
    """
    if cfg.stage != "single_corpus":
        raise ConfigError(f"train_transfer needs stage single_corpus, got {cfg.stage!r}")
    if reinit_head:
        model.reinit_head()

    if cfg.expansion is not None:
        model = expand_verified(model, cfg.expansion, cfg.seed, target.corpus_id)

    schedule = round_robin_schedule([target.corpus_id], cfg.n_steps)
    log = _train_loop(model, [target], schedule, cfg)
    return model, log

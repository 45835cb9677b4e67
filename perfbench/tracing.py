"""Spans and counters recorded from outside the program.

A `Tracer` replaces public functions of `bbekit` at the names their callers
look them up by (a module attribute or a class attribute) with wrappers that
record one span per call: name, start, end, parent span and training step id.
Spans stay in memory; the benchmark reduces them after each episode and
writes the traced episodes' spans out at the end of the run.  Nothing
inside `src/` is changed: `instrument` restores every original on exit.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Span record layout, a list for cheap mutation in the wrapper.
NAME, START, END, PARENT, STEP, FAILED = range(6)


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr` is where callers look it up."""

    span: str
    owner: str  # "module" or "module:Class"
    attr: str
    pre: Callable | None = None  # (tracer, args) before the clock starts
    post: Callable | None = None  # (tracer, args, result) after it stops
    when: Callable | None = None  # record a span only if this returns True
    always: bool = False  # needed by the untraced run as well


class Tracer:
    """Spans and counters of one episode (or set-up), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.preservation: list[float] = []
        self.eval_samples: list[int] = []  # per evaluate call, in call order
        self.step_id: int | None = None
        self._stack: list[int] = []
        self._next_step = 0

    def begin_step(self) -> None:
        self.step_id = self._next_step
        self._next_step += 1

    def end_step(self) -> None:
        self.step_id = None

    def reset(self) -> None:
        """Drop recorded spans and counters; an open step is abandoned."""
        self.spans.clear()
        self.counters.clear()
        self.preservation.clear()
        self.eval_samples.clear()
        self._stack.clear()
        self.step_id = None

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        pre, post, when = target.pre, target.post, target.when

        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            if pre is not None:
                pre(self, args)
            span = [target.span, 0.0, 0.0, stack[-1] if stack else -1,
                    self.step_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


@contextmanager
def instrument(tracer: Tracer, targets, traced: bool):
    """Install wrappers for the always-on targets, plus every other target
    when `traced`; restore the originals on exit."""
    saved = []
    try:
        for target in targets:
            if not (traced or target.always):
                continue
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            saved.append((owner, target.attr, original))
            setattr(owner, target.attr, tracer.wrap(target, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- reductions ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def busy_and_self(spans) -> tuple[Counter, Counter]:
    """Per span name: summed duration and summed self time."""
    busy, own = Counter(), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        busy[span[NAME]] += span[END] - span[START]
        own[span[NAME]] += self_s
    return busy, own


def span_counts(spans) -> dict[str, int]:
    return dict(Counter(span[NAME] for span in spans))


def step_durations(spans, first: str, last: str) -> list[float]:
    """Per step id: from the start of its `first` span to the end of its
    `last` span.  Steps that never reached `last` are left out."""
    start: dict[int, float] = {}
    out = []
    for span in spans:
        step = span[STEP]
        if step is None:
            continue
        if span[NAME] == first:
            start[step] = span[START]
        elif span[NAME] == last and not span[FAILED] and step in start:
            out.append(span[END] - start[step])
    return out


# -- counter hooks ------------------------------------------------------------

def count_tape_nodes(tracer: Tracer, args) -> None:
    """Walk the graph behind the loss the way backward does: every node
    reachable through parents that require a gradient, leaves included."""
    seen = {id(args[0])}
    stack = [args[0]]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.counters["autodiff.tape_nodes"] += len(seen)


def count_batch(tracer: Tracer, args, batch) -> None:
    tracer.counters["corpus.samples"] += batch.size
    tracer.counters["corpus.frames_real"] += int(batch.pad_mask.sum())
    tracer.counters["corpus.frames_capacity"] += batch.pad_mask.size


def file_bytes(key: str) -> Callable:
    def hook(tracer: Tracer, args, *_):
        tracer.counters[key] += os.path.getsize(args[0])
    return hook


def _begin_step(tracer: Tracer, args) -> None:
    tracer.begin_step()


def _end_step(tracer: Tracer, args, result) -> None:
    tracer.end_step()


def _count_params(tracer: Tracer, args) -> None:
    tracer.counters["optim.params_updated"] += args[0].n_params(only_trainable=True)


def _count_eval(tracer: Tracer, args, result) -> None:
    tracer.counters["trainer.evaluate.samples"] += result["n_samples"]
    tracer.eval_samples.append(result["n_samples"])


def _record_preservation(tracer: Tracer, args, result) -> None:
    tracer.preservation.append(result)


FUNCTIONAL_OPS = ("multi_head_attention", "layer_norm", "linear_forward",
                  "encoder_block_forward", "expanded_block_forward",
                  "masked_mean_pool", "softmax_cross_entropy")


def bbekit_targets() -> list[Target]:
    """Every layer boundary the benchmark times, keyed by `src/bbekit/`
    module.  A step runs from `next_batch` to the end of `adamw_step`, which
    is why those two, evaluation, expansion and checkpoint I/O stay wrapped
    in the untraced run too; so do the feature reads, which happen mostly in
    the run's first episode, an untraced one."""
    from bbekit.autodiff import is_grad_enabled

    return [
        Target("corpus.next_batch", "bbekit.trainer", "next_batch",
               pre=_begin_step, post=count_batch, always=True),
        Target("optim.adamw_step", "bbekit.trainer", "adamw_step",
               pre=_count_params, post=_end_step, always=True),
        Target("trainer.evaluate", "bbekit.trainer", "evaluate",
               post=_count_eval, always=True),
        Target("expansion.expand", "bbekit.trainer", "expand", always=True),
        Target("expansion.verify_preservation", "bbekit.trainer",
               "verify_preservation", post=_record_preservation, always=True),
        Target("checkpoint.save_checkpoint", "bbekit.checkpoint", "save_checkpoint",
               post=file_bytes("checkpoint.save_checkpoint.bytes"), always=True),
        Target("checkpoint.load_checkpoint", "bbekit.checkpoint", "load_checkpoint",
               pre=file_bytes("checkpoint.load_checkpoint.bytes"), always=True),
        Target("corpus.features", "bbekit.corpus:CorpusManifest", "features",
               always=True),
        Target("featfile.read_features", "bbekit.corpus", "read_features",
               post=file_bytes("featfile.read_features.bytes"), always=True),
        # forward under no_grad runs inside logits and is timed as logits
        Target("model.forward", "bbekit.model:EncoderModel", "forward",
               when=is_grad_enabled),
        Target("model.logits", "bbekit.model:EncoderModel", "logits"),
        Target("autodiff.backward", "bbekit.autodiff:Tensor", "backward",
               pre=count_tape_nodes),
        Target("autodiff.unfold1d", "bbekit.autodiff", "unfold1d"),
    ] + [Target(f"functional.{op}", "bbekit.functional", op) for op in FUNCTIONAL_OPS]

"""Depth expansion: duplicate encoder blocks behind zero-initialized gates.

Each original block gets ``multiplier - 1`` copies inserted directly after
it.  A copy computes ``y = x + ZLL(block(x))`` where ZLL is a linear layer
whose weight and bias start at zero, so the expanded model reproduces the
source model's outputs exactly until training moves the ZLL away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import pad_frames
from .errors import ConfigError, DimensionError, StateError
from .model import BlockInfo, EncoderModel, param_layout

FREEZE_POLICIES = ("freeze-original", "non-frozen", "head-only")
PRESERVE_PROBES = 8


@dataclass(frozen=True)
class ExpansionSpec:
    multiplier: int = 2
    freeze_policy: str = "freeze-original"

    def __post_init__(self):
        if self.multiplier not in (2, 3):
            raise ConfigError(f"multiplier must be 2 or 3, got {self.multiplier}")
        if self.freeze_policy not in FREEZE_POLICIES:
            raise ConfigError(f"unknown freeze policy {self.freeze_policy!r}")

    def to_dict(self) -> dict:
        return {"multiplier": self.multiplier, "freeze_policy": self.freeze_policy}


def expand(model: EncoderModel, spec: ExpansionSpec) -> EncoderModel:
    """Return an expanded deep copy; the input model is left untouched."""
    if model.expansion is not None:
        raise StateError("model is already expanded; expansion is single-shot")

    out = model.clone()
    new_index = []
    for info in out.block_index:
        new_index.append(info)
        new_index += [BlockInfo(f"{info.block_id}x{k}", "expanded", source=info.block_id)
                      for k in range(1, spec.multiplier)]
    out.block_index = new_index
    out.config.n_blocks = len(new_index)
    # the copies' parameters are the ones the grown layout adds: the source
    # block's arrays and ZLL gates at zero, added frozen so that a copy
    # shares its source's arrays while both stay frozen; the freeze policy's
    # thaw gives a trainable copy its own
    sources = {b.block_id: b.source for b in new_index}
    for name, shape in param_layout(out.config, new_index).items():
        if name in out.store:
            continue
        _, block_id, suffix = name.split(".", 2)
        if suffix.startswith("zll."):
            value = np.zeros(shape)
        else:
            value = out.store.value(f"block.{sources[block_id]}.{suffix}")
        out.store.add(name, value, frozen=True)
    out.expansion = {
        "multiplier": spec.multiplier,
        "freeze_policy": spec.freeze_policy,
        "source_blocks": [b.block_id for b in model.block_index],
    }
    apply_freeze_policy(out, spec.freeze_policy)
    return out


def apply_freeze_policy(model: EncoderModel, policy: str) -> None:
    """Set the store's frozen flags; the expansion record notes the policy."""
    if policy not in FREEZE_POLICIES:
        raise ConfigError(f"unknown freeze policy {policy!r}")

    def frozen(name: str) -> bool:
        if name.startswith("frontend."):
            return True  # the frontend stays fixed under every policy
        if policy == "head-only":
            return not name.startswith("head.")
        if policy == "non-frozen":
            return False
        if name.startswith("head."):
            return False
        block_id = name.split(".")[1]
        return model.block_info(block_id).origin == "original"

    model.store.freeze_where(frozen)
    if model.expansion is not None:
        model.expansion["freeze_policy"] = policy


def preservation_probes(model: EncoderModel, seed: int,
                        n: int = PRESERVE_PROBES) -> list[np.ndarray]:
    """Seeded standard-normal frame sequences for ``verify_preservation``;
    their lengths start at the shortest input the model's frontend accepts."""
    rng = np.random.default_rng(seed)
    shortest, d = model.config.min_input_length, model.config.input_dim
    return [rng.normal(0.0, 1.0, (shortest + int(rng.integers(0, 20)), d)) for _ in range(n)]


def verify_preservation(base: EncoderModel, expanded: EncoderModel,
                        probes: list) -> float:
    """Max absolute logit difference between the two models over the probes:
    [T, input_dim] frames, or ``(frames, mask)`` pairs with a [T] mask.

    The probes run zero-padded as one batch, once through each model.  With
    zero-initialized ZLL gates this must be exactly 0.0: both models take
    the same packing, every copy adds an exact ``+ 0``, and the rest is the
    source model's float64 operation sequence.  The expanded model runs
    every copy, also those whose closed gate its forward would skip, since
    this check proves the identity that the skip relies on.
    """
    if not probes:
        raise ConfigError("preservation check needs at least one probe")
    if expanded.expansion is None:
        raise StateError("second model carries no expansion record")
    if expanded.expansion["source_blocks"] != [b.block_id for b in base.block_index]:
        raise StateError("models are structurally unrelated")
    d = base.config.input_dim
    try:  # a ragged or non-numeric probe, or a tuple that is no (frames, mask) pair
        pairs = [(np.asarray(f, dtype=np.float64), None if m is None else np.asarray(m, dtype=bool))
                 for f, m in (p if isinstance(p, tuple) else (p, None) for p in probes)]
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"a probe needs [T, {d}] frames and a [T] mask: {exc}") from exc
    for frames, pad_mask in pairs:
        shape, mask_shape = frames.shape, np.shape(pad_mask)
        if len(shape) != 2 or shape[1] != d or (pad_mask is not None and mask_shape != shape[:1]):
            raise DimensionError(f"a probe needs [T, {d}] frames and a [T] mask, "
                                 f"got {shape} and {mask_shape}")
    frames, pad_mask = pad_frames([f for f, _ in pairs], "probes")
    for row, (probe, own) in zip(pad_mask, pairs):
        if own is not None:
            row[:len(probe)] &= own
    with ad.no_grad():
        grown = expanded.head(expanded.encode_rows(
            *expanded.frontend_rows(frames, pad_mask), every_copy=True)).data
    return float(np.abs(base.logits(frames, pad_mask) - grown).max())

"""Composite neural ops for the encoder stack.

Each public op validates its shapes, calls autodiff primitives (linear,
layer norm and the attention core are one tape node each), and checks the
result for non-finite values (the operation-level hygiene contract).  A
batch of frame sequences is packed: the attention, block and pooling ops
take the real frames only, as [N, d] rows in batch-major order, plus the
[B, T] padding mask they came from (True on the N real frames), so every
position-wise layer runs on N rows.  Only attention and pooling read the
mask.  ``EncoderModel.embed`` packs the frontend's output, and
``EncoderModel.forward`` turns a single [T, d] sequence into a batch of
one.  The block forward passes take a block's parameters as a
``{suffix: Tensor}`` mapping, e.g. ``p["attn.q.weight"]``; an expanded
block's mapping also holds ``zll.weight`` and ``zll.bias``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, InputError, NumericalError

def _check_finite(name: str, out: Tensor) -> Tensor:
    if not np.isfinite(out.data).all():
        raise NumericalError(f"{name} produced non-finite values")
    return out


def linear_forward(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y[..., j] = sum_i x[..., i] * weight[i, j] + bias[j]."""
    if weight.ndim != 2:
        raise DimensionError(f"weight must be 2-d, got {weight.shape}")
    d_in, d_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise DimensionError(f"linear input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (d_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({d_out},)")
    return _check_finite("linear", ad.linear(x, weight, bias))


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Per last-axis slice: (x - mean) / sqrt(var + eps) * gain + shift."""
    if eps <= 0.0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty axis")
    if gain.shape != (d,) or shift.shape != (d,):
        raise DimensionError(f"gain/shift must have shape ({d},)")
    return _check_finite("layer_norm", ad.layer_norm(x, gain, shift, eps))


def _packed_mask(x: Tensor, pad_mask: np.ndarray, op: str) -> np.ndarray:
    """The [B, T] mask as bool, checked against packed [N, d] rows."""
    mask = np.asarray(pad_mask, dtype=bool)
    if x.ndim != 2 or mask.ndim != 2:
        raise DimensionError(f"{op} expects packed [N, d] rows with a [B, T] mask, "
                             f"got {x.shape} and {mask.shape}")
    if (n_real := int(mask.sum())) != x.shape[0]:
        raise DimensionError(f"{op}: {x.shape[0]} rows for a mask with {n_real} real frames")
    return mask


def multi_head_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                         wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
                         heads: int, pad_mask: np.ndarray) -> Tensor:
    """Bidirectional scaled dot-product attention over packed [N, d] rows.

    Each sample's real frames attend to each other only: scores are
    [B, heads, T, T] in the attention core, with the padded keys masked.
    """
    mask = _packed_mask(x, pad_mask, "attention")
    d = x.shape[1]
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    merged = ad.attention_core(linear_forward(x, wq, bq), linear_forward(x, wk, bk),
                               linear_forward(x, wv, bv), mask, heads)
    return linear_forward(_check_finite("attention", merged), wo, bo)


LN_EPS = 1e-5


def encoder_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                          pad_mask: np.ndarray) -> Tensor:
    """Pre-norm block over packed [N, d] rows: u = x + Attn(LN1(x));
    y = u + FFN(LN2(u))."""
    attended = multi_head_attention(layer_norm(x, p["ln1.gain"], p["ln1.shift"], LN_EPS),
                                    p["attn.q.weight"], p["attn.q.bias"],
                                    p["attn.k.weight"], p["attn.k.bias"],
                                    p["attn.v.weight"], p["attn.v.bias"],
                                    p["attn.o.weight"], p["attn.o.bias"],
                                    heads, pad_mask)
    u = x + attended
    hidden = ad.gelu(linear_forward(layer_norm(u, p["ln2.gain"], p["ln2.shift"], LN_EPS),
                                    p["ffn.w1.weight"], p["ffn.w1.bias"]))
    return u + linear_forward(hidden, p["ffn.w2.weight"], p["ffn.w2.bias"])


def expanded_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                           pad_mask: np.ndarray) -> Tensor:
    """Copied block wrapped in a skip connection through its output
    projection: y = x + proj(block(x)).  With the projection still at its
    zero initialization this is bit-exactly the identity."""
    if "zll.weight" not in p or "zll.bias" not in p:
        raise ConfigError("expanded block is missing its output projection")
    inner = encoder_block_forward(x, p, heads, pad_mask)
    return x + linear_forward(inner, p["zll.weight"], p["zll.bias"])


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax over [B, C] logits and B labels; gradient is
    (softmax - one_hot) / B."""
    return _check_finite("cross_entropy", ad.cross_entropy_with_logits(logits, labels))


def masked_mean_pool(x: Tensor, pad_mask: np.ndarray) -> Tensor:
    """Mean over each sample's real frames: packed [N, d] rows -> [B, d]."""
    mask = _packed_mask(x, pad_mask, "pooling")
    if not mask.any(axis=1).all():
        raise InputError("all frames masked out")
    return ad.segment_mean(x, mask)

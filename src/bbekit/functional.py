"""Composite neural ops for the encoder stack.

Each public op validates its shapes, composes autodiff primitives, and
checks the result for non-finite values (the operation-level hygiene
contract).  Frame sequences are [B, T, d] with a required [B, T] padding
mask, True on valid frames; ``EncoderModel.forward`` turns a single [T, d]
sequence into a batch of one.  The block forward passes take a block's
parameters as a ``{suffix: Tensor}`` mapping, e.g. ``p["attn.q.weight"]``;
an expanded block's mapping also holds ``zll.weight`` and ``zll.bias``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, InputError, NumericalError

# Additive pre-softmax penalty for masked keys.  exp(x - MASK_NEG) underflows
# to exactly 0.0 for any |x| within the hygiene bound, so masked frames have
# bit-exactly zero attention weight.
MASK_NEG = 1e30


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
    lead = x.shape[:-1]
    flat = ad.reshape(x, (-1, d_in))
    y = ad.add(ad.matmul(flat, weight), bias)
    return _check_finite("linear", ad.reshape(y, lead + (d_out,)))


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Per last-axis slice: (x - mean) / sqrt(var + eps) * gain + shift."""
    if eps <= 0.0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty axis")
    if gain.shape != (d,) or shift.shape != (d,):
        raise DimensionError(f"gain/shift must have shape ({d},)")
    mu = ad.tmean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = ad.tmean(ad.mul(centered, centered), axis=-1, keepdims=True)
    rstd = (var + eps) ** -0.5  # population variance
    return _check_finite("layer_norm", centered * rstd * gain + shift)


def multi_head_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                         wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
                         heads: int, pad_mask: np.ndarray) -> Tensor:
    """Bidirectional scaled dot-product attention over [B, T, d] frames.

    Scores are [B, heads, T, T]; the [B, T] pad_mask becomes a [B, 1, 1, T]
    additive key bias.
    """
    if x.ndim != 3:
        raise DimensionError(f"attention expects [B, T, d], got {x.shape}")
    batch, n_frames, d = x.shape
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.shape != (batch, n_frames):
        raise DimensionError(f"pad_mask shape {mask.shape} != {(batch, n_frames)}")
    d_head = d // heads

    q = linear_forward(x, wq, bq)
    k = linear_forward(x, wk, bk)
    v = linear_forward(x, wv, bv)

    def split(t: Tensor) -> Tensor:  # [B, T, d] -> [B, heads, T, d_head]
        return ad.transpose(ad.reshape(t, (batch, n_frames, heads, d_head)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(d_head))
    weights = ad.softmax_last(scores, additive_mask=np.where(mask, 0.0, -MASK_NEG)[:, None, None])
    mixed = ad.matmul(weights, v)  # [B, heads, T, d_head]
    merged = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (batch, n_frames, d))
    return _check_finite("attention", linear_forward(merged, wo, bo))


LN_EPS = 1e-5


def encoder_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                          pad_mask: np.ndarray) -> Tensor:
    """Pre-norm block over [B, T, d]: u = x + Attn(LN1(x)); y = u + FFN(LN2(u))."""
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
    """Mean over the valid frames of [B, T, d] -> [B, d]; padded rows
    contribute nothing."""
    if x.ndim != 3:
        raise DimensionError(f"pooling expects [B, T, d], got {x.shape}")
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.shape != x.shape[:2]:
        raise DimensionError(f"pad_mask shape {mask.shape} != {x.shape[:2]}")
    count = mask.sum(axis=1)
    if (count == 0).any():
        raise InputError("all frames masked out")
    weights = mask.astype(np.float64)[:, :, None]
    return ad.mul(ad.tsum(ad.mul(x, weights), axis=1), (1.0 / count)[:, None])

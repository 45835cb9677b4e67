"""Composite neural ops for the encoder stack.

Each public op validates its shapes, calls autodiff primitives (linear,
layer norm and the attention core are one tape node each), and checks the
result for non-finite values (the operation-level hygiene contract).  A
batch of frame sequences is packed: the attention, block and pooling ops
take the real frames only, as [N, d] rows in batch-major order, plus the
batch's ``autodiff.Packing``, so every position-wise layer runs on N rows.
Only attention and pooling read the packing: attention scores each
sample's frames inside the shared sequences it lays out, and pooling reads
the [B, T] mask it carries.  ``EncoderModel.frontend_rows`` packs the
frontend's output, ``EncoderModel.encode_rows`` builds the packing, and
``EncoderModel.forward`` turns a single [T, d] sequence into a batch of
one.  The block forward passes take a block's parameters as a
``{suffix: Tensor}`` mapping, e.g. ``p["attn.q.weight"]``; an expanded
block's mapping also holds ``zll.weight`` and ``zll.bias``.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, NumericalError

def _check_finite(name: str, out: Tensor) -> Tensor:
    if not np.isfinite(out.data).all():
        raise NumericalError(f"{name} produced non-finite values")
    return out


def linear_forward(x: Tensor, weight, bias) -> Tensor:
    """y[..., j] = sum_i x[..., i] * weight[i, j] + bias[j].

    ``weight`` and ``bias`` may be equally long sequences of column blocks,
    e.g. ``(wq, wk, wv)`` and ``(bq, bk, bv)``, which run as one GEMM whose
    output columns follow the block order.
    """
    if isinstance(weight, (list, tuple)):
        if len(weight) != len(bias):
            raise DimensionError(f"{len(weight)} weight blocks for {len(bias)} bias blocks")
        for w, b in zip(weight, bias):
            _check_linear_shapes(x, w, b)
    else:
        _check_linear_shapes(x, weight, bias)
    return _check_finite("linear", ad.linear(x, weight, bias))


def _check_linear_shapes(x: Tensor, weight: Tensor, bias: Tensor) -> None:
    if weight.ndim != 2:
        raise DimensionError(f"weight must be 2-d, got {weight.shape}")
    d_in, d_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise DimensionError(f"linear input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (d_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({d_out},)")


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


def _check_packed(x: Tensor, packing: ad.Packing, op: str) -> None:
    if x.ndim != 2 or x.shape[0] != packing.n_rows:
        raise DimensionError(f"{op} expects packed [N, d] rows of the packing's "
                             f"{packing.n_rows} real frames, got {x.shape}")


def multi_head_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                         wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
                         heads: int, packing: ad.Packing) -> Tensor:
    """Bidirectional scaled dot-product attention over packed [N, d] rows.

    Each sample's real frames attend to each other only.  Queries, keys
    and values come from one GEMM over ``[wq | wk | wv]``; the attention
    core scores them in the packing's shared sequences.
    """
    _check_packed(x, packing, "attention")
    d = x.shape[1]
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    if any(w.shape != (d, d) for w in (wq, wk, wv)):
        raise DimensionError(f"q/k/v weights must be ({d}, {d})")
    qkv = linear_forward(x, (wq, wk, wv), (bq, bk, bv))
    merged = ad.attention_core(qkv, packing, heads)
    return linear_forward(_check_finite("attention", merged), wo, bo)


LN_EPS = 1e-5


def encoder_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                          packing: ad.Packing) -> Tensor:
    """Pre-norm block over packed [N, d] rows: u = x + Attn(LN1(x));
    y = u + FFN(LN2(u))."""
    attended = multi_head_attention(layer_norm(x, p["ln1.gain"], p["ln1.shift"], LN_EPS),
                                    p["attn.q.weight"], p["attn.q.bias"],
                                    p["attn.k.weight"], p["attn.k.bias"],
                                    p["attn.v.weight"], p["attn.v.bias"],
                                    p["attn.o.weight"], p["attn.o.bias"],
                                    heads, packing)
    u = x + attended
    hidden = ad.gelu(linear_forward(layer_norm(u, p["ln2.gain"], p["ln2.shift"], LN_EPS),
                                    p["ffn.w1.weight"], p["ffn.w1.bias"]))
    return u + linear_forward(hidden, p["ffn.w2.weight"], p["ffn.w2.bias"])


def expanded_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                           packing: ad.Packing) -> Tensor:
    """Copied block wrapped in a skip connection through its output
    projection: y = x + proj(block(x)).  With the projection still at its
    zero initialization this is bit-exactly the identity."""
    if "zll.weight" not in p or "zll.bias" not in p:
        raise ConfigError("expanded block is missing its output projection")
    inner = encoder_block_forward(x, p, heads, packing)
    return x + linear_forward(inner, p["zll.weight"], p["zll.bias"])


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean -log softmax over [B, C] logits and B labels; gradient is
    (softmax - one_hot) / B."""
    return _check_finite("cross_entropy", ad.cross_entropy_with_logits(logits, labels))


def masked_mean_pool(x: Tensor, packing: ad.Packing) -> Tensor:
    """Mean over each sample's real frames: packed [N, d] rows -> [B, d]."""
    _check_packed(x, packing, "pooling")
    return ad.segment_mean(x, packing.mask)

"""The encoder stack's ops under the names the benchmark times.

``perfbench/tracing.py`` times these ops by wrapping
``bbekit.functional.<op>``, which is why the names remain: the model, the
trainer and ``gradcheck`` call them here, and ``expanded_block_forward``
calls ``encoder_block_forward`` by this module's name so its span nests.
``encoder_block_forward``, ``masked_mean_pool`` and
``softmax_cross_entropy`` are the ``autodiff`` ops themselves, which check
their own outputs; ``linear_forward``, ``layer_norm`` and
``multi_head_attention`` also check their arguments' shapes.

A batch of frame sequences is packed: the attention, block and pooling
ops take the real frames only, as [N, d] rows in batch-major order, plus
the batch's packing, so every position-wise layer runs on N rows.  Only
attention and pooling read the packing: attention scores each sample's
frames inside the shared sequences it lays out, and pooling reads the
[B, T] mask it carries.  ``EncoderModel.frontend_rows`` packs the
frontend's output, ``EncoderModel.encode_rows`` builds the packing, and
``EncoderModel.forward`` turns a single [T, d] sequence into a batch of
one.  The block forward passes take a block's parameters as a
``{suffix: Tensor}`` mapping, e.g. ``p["attn.q.weight"]``; an expanded
block's mapping also holds ``zll.weight`` and ``zll.bias``.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import LN_EPS, Tensor  # noqa: F401 (LN_EPS is re-exported)
from .errors import ConfigError, DimensionError


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
    return ad.linear(x, weight, bias)


def _check_linear_shapes(x: Tensor, weight: Tensor, bias: Tensor) -> None:
    if weight.ndim != 2:
        raise DimensionError(f"weight must be 2-d, got {weight.shape}")
    d_in, d_out = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise DimensionError(f"linear input {x.shape} incompatible with weight {weight.shape}")
    if bias.shape != (d_out,):
        raise DimensionError(f"bias shape {bias.shape} != ({d_out},)")


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Per last-axis slice: (x - mean) / sqrt(var + LN_EPS) * gain + shift."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise DimensionError("layer_norm over an empty axis")
    if gain.shape != (d,) or shift.shape != (d,):
        raise DimensionError(f"gain/shift must have shape ({d},)")
    return ad.layer_norm(x, gain, shift)


def multi_head_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                         wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
                         heads: int, packing: ad.Packing) -> Tensor:
    """Bidirectional scaled dot-product attention over packed [N, d] rows.

    Each sample's real frames attend to each other only.  Queries, keys
    and values come from one GEMM over ``[wq | wk | wv]``; the attention
    core scores them in the packing's shared sequences.
    """
    d = x.shape[-1]
    if heads < 1 or d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by {heads} heads")
    if any(w.shape != (d, d) for w in (wq, wk, wv)):
        raise DimensionError(f"q/k/v weights must be ({d}, {d})")
    qkv = linear_forward(x, (wq, wk, wv), (bq, bk, bv))
    return linear_forward(ad.attention_core(qkv, packing, heads), wo, bo)


encoder_block_forward = ad.encoder_block


def expanded_block_forward(x: Tensor, p: dict[str, Tensor], heads: int,
                           packing: ad.Packing) -> Tensor:
    """Copied block wrapped in a skip connection through its output
    projection: y = x + proj(block(x)).  With the projection still at its
    zero initialization this is bit-exactly the identity."""
    if "zll.weight" not in p or "zll.bias" not in p:
        raise ConfigError("expanded block is missing its output projection")
    inner = encoder_block_forward(x, p, heads, packing)
    return x + ad.linear(inner, p["zll.weight"], p["zll.bias"])


softmax_cross_entropy = ad.cross_entropy_with_logits

masked_mean_pool = ad.segment_mean

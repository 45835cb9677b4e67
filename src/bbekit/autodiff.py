"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine: every op output keeps references to its parents
and a closure that maps the output gradient to parent gradients.  Only the
primitives needed by the encoder stack are provided.  All math is float64
and bit-deterministic for a fixed call order.

Gradient recording is one module-level flag, which ``no_grad`` switches
off for the block it wraps.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, InputError, LabelError, StateError

_grad_enabled = True


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_array(data) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class Tensor:
    """Dense float64 array plus optional gradient bookkeeping.

    Leaf tensors created with ``requires_grad=True`` (parameters) carry a
    zero-initialized ``grad`` buffer that ``backward`` accumulates into.
    Interior nodes keep their gradient only transiently during a backward
    pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        ``self`` must be a scalar produced by recorded ops.
        """
        if self.size != 1:
            raise StateError(f"backward requires a scalar, got shape {self.shape}")
        if self._backward is None:
            raise StateError("backward called without a recorded forward tape")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad += g  # leaf: accumulate
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- operator sugar over the module-level primitives --------------------

    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = None  # interior nodes do not keep a persistent buffer
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- primitives -------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)
    return _node(out, (a,), lambda g: (g.reshape(a.shape),))


# -- fused layers: one node each, with hand-written backward passes ----------
# Each forward evaluates the same float64 expressions, in the same order, as
# the elementwise composition it replaces, so outputs are bit-identical to
# it; only the gradients' accumulation order differs.  Shapes are checked by
# the ``functional`` wrappers.  A gradient is computed only for the parents
# that require one.


def linear(x, weight, bias) -> Tensor:
    """``[..., d_in] @ weight[d_in, d_out] + bias[d_out]``.

    ``weight`` and ``bias`` may instead be equally long sequences of column
    blocks, e.g. ``(wq, wk, wv)`` and ``(bq, bk, bv)``: one GEMM runs over
    the blocks concatenated column-wise, the output's columns follow the
    block order, and each block's gradient is its slice of the columns.
    """
    x = _wrap(x)
    if isinstance(weight, (list, tuple)):
        weights, biases = [_wrap(t) for t in weight], [_wrap(t) for t in bias]
        w = np.concatenate([t.data for t in weights], axis=1)
        b = np.concatenate([t.data for t in biases])
    else:
        weights, biases = [_wrap(weight)], [_wrap(bias)]
        w, b = weights[0].data, biases[0].data
    d_in, d_out = w.shape
    flat = x.data.reshape(-1, d_in)
    out = flat @ w
    out += b

    def backward(g):
        g = g.reshape(-1, d_out)
        gw = flat.T @ g if any(t.requires_grad for t in weights) else None
        gb = g.sum(axis=0) if any(t.requires_grad for t in biases) else None
        return ((g @ w.T).reshape(x.shape) if x.requires_grad else None,
                *_split_columns(gw, weights), *_split_columns(gb, biases))

    return _node(out.reshape(x.shape[:-1] + (d_out,)), (x, *weights, *biases), backward)


def _split_columns(grad: np.ndarray | None, blocks: list[Tensor]) -> list[np.ndarray | None]:
    """Each block's column slice of ``grad``, or None where the block needs
    no gradient (``grad`` is None when none does)."""
    if grad is None:
        return [None] * len(blocks)
    if len(blocks) == 1:
        return [grad]
    parts, start = [], 0
    for block in blocks:
        stop = start + block.shape[-1]
        parts.append(grad[..., start:stop] if block.requires_grad else None)
        start = stop
    return parts


LN_EPS = 1e-5


def layer_norm(x, gain, shift) -> Tensor:
    """``(x - mean) * (var + LN_EPS)**-0.5 * gain + shift`` over the last axis,
    with the population variance."""
    x, gain, shift = _wrap(x), _wrap(gain), _wrap(shift)
    inv_d = 1.0 / x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) * inv_d
    xhat = x.data - mu  # centered, normalized in place below
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_d
    rstd = (var + LN_EPS) ** -0.5
    xhat *= rstd
    out = xhat * gain.data
    out += shift.data
    lead = tuple(range(x.ndim - 1))

    def backward(g):
        gx = None
        if x.requires_grad:
            # rstd * (ĝ - mean(ĝ) - x̂ * mean(ĝ * x̂)) with ĝ = g * gain
            ghat = g * gain.data
            gx = ghat - ghat.sum(axis=-1, keepdims=True) * inv_d
            gx -= xhat * ((ghat * xhat).sum(axis=-1, keepdims=True) * inv_d)
            gx *= rstd
        return (gx,
                (g * xhat).sum(axis=lead) if gain.requires_grad else None,
                g.sum(axis=lead) if shift.requires_grad else None)

    return _node(out, (x, gain, shift), backward)


# Additive pre-softmax penalty for keys outside a query's own sample.
# exp(x - MASK_NEG) underflows to exactly 0.0 for any |x| within the hygiene
# bound, so those keys have bit-exactly zero attention weight.
MASK_NEG = 1e30


@dataclass(frozen=True, eq=False)
class Packing:
    """Where a batch's real frames sit in the shared attention sequences.

    ``pack_sequences`` places the B samples into R <= B sequences of length
    L, the longest sample's frame count; a sequence holds whole samples
    back to back.  ``slots[i]`` is the row ``r * L + l`` of real frame i
    (batch-major, as ``EncoderModel.frontend_rows`` packs them) at position
    l of sequence r.  ``bias`` is the additive [R, 1, L, L] score bias: 0
    where query and key are frames of the same sample, -MASK_NEG across
    samples and on padding.  ``mask`` is the [B, T] mask the packing was
    built from.
    """

    mask: np.ndarray
    slots: np.ndarray
    bias: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.slots.shape[0]


def pack_sequences(pad_mask: np.ndarray) -> Packing:
    """First-fit decreasing over the [B, T] mask's sample lengths: longest
    first (ties in batch order), each sample goes into the first sequence
    with room left, else opens one.  Every sample needs a real frame."""
    mask = np.asarray(pad_mask, dtype=bool)
    if mask.ndim != 2:
        raise DimensionError(f"packing expects a [B, T] mask, got shape {mask.shape}")
    lengths = mask.sum(axis=1)
    if not (lengths.size and lengths.all()):
        raise InputError("packing needs samples with at least one real frame each")
    length = int(lengths.max())
    room: list[int] = []  # free positions left in each sequence
    first_slot = np.empty_like(lengths)
    for i in np.argsort(-lengths, kind="stable"):
        n = int(lengths[i])
        r = next((r for r, free in enumerate(room) if free >= n), len(room))
        if r == len(room):
            room.append(length)
        first_slot[i] = r * length + length - room[r]
        room[r] -= n
    # [R * L, L] rows of the bias: sample i's block sits at its slots'
    # rows and at the same positions' columns
    bias = np.full((len(room) * length, length), -MASK_NEG)
    for start, n in zip(first_slot.tolist(), lengths.tolist()):
        pos = start % length
        bias[start:start + n, pos:pos + n] = 0.0
    first_row = np.cumsum(lengths) - lengths
    slots = np.arange(int(lengths.sum())) + np.repeat(first_slot - first_row, lengths)
    return Packing(mask, slots, bias.reshape(len(room), 1, length, length))


def attention_core(qkv, packing: Packing, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention from fused [N, 3d] rows of
    projected queries, keys and values (``[q | k | v]``, one row per real
    frame, batch-major) to merged [N, d] head outputs.

    The rows are scattered once into the packing's R sequences of length
    L, viewed as [R, heads, L, d/heads] per projection.  The scaled scores
    get the packing's bias before the max-subtracted softmax over keys, so
    each frame attends to its own sample's frames only; the real frames'
    outputs are gathered back once.
    """
    qkv = _wrap(qkv)
    n_rows, width = qkv.shape
    d = width // 3
    d_head = d // heads
    n_seqs, _, length, _ = packing.bias.shape
    slots = packing.slots
    rows = np.zeros((n_seqs * length, width))
    rows[slots] = qkv.data
    # [R, L, 3, heads, d_head] -> q, k and v views of [R, heads, L, d_head]
    qh, kh, vh = rows.reshape(n_seqs, length, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(d_head)
    weights = qh @ kh.swapaxes(-1, -2)  # [R, heads, L, L]
    weights *= scale
    weights += packing.bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = np.empty((n_seqs, length, heads, d_head))
    np.matmul(weights, vh, out=merged.transpose(0, 2, 1, 3))

    def backward(g):
        gh = np.zeros((n_seqs * length, d))
        gh[slots] = g
        gh = gh.reshape(n_seqs, length, heads, d_head).transpose(0, 2, 1, 3)
        grads = np.empty((n_seqs, length, 3, heads, d_head))
        gq, gk, gv = grads.transpose(2, 0, 3, 1, 4)
        np.matmul(weights.swapaxes(-1, -2), gh, out=gv)
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= np.einsum("rhqk,rhqk->rhq", gs, weights)[..., None]  # softmax backward
        gs *= weights
        np.matmul(gs, kh, out=gq)
        np.matmul(gs.swapaxes(-1, -2), qh, out=gk)
        out = grads.reshape(-1, width)[slots]
        out[:, :2 * d] *= scale  # the scores' scale, on the q and k gradients
        return (out,)

    return _node(merged.reshape(-1, d)[slots], (qkv,), backward)


def segment_mean(x, pad_mask: np.ndarray) -> Tensor:
    """Mean over each sample's rows of packed [N, d] rows -> [B, d]; the
    [B, T] mask (True on the N real frames, batch-major) marks which rows
    belong to which sample, and every sample needs at least one.

    The sums run over a zero-padded [B, T, d] copy along T, which adds
    each sample's rows one after another in frame order (the bits of
    pooling the padded frames); ``np.add.reduceat`` would sum pairwise.
    """
    x = _wrap(x)
    counts = pad_mask.sum(axis=1)
    inv_count = (1.0 / counts)[:, None]
    full = np.zeros(pad_mask.shape + x.shape[1:])
    full[pad_mask] = x.data
    out = full.sum(axis=1)
    out *= inv_count
    return _node(out, (x,), lambda g: (np.repeat(g * inv_count, counts, axis=0),))


# erf from a table of Taylor expansions.  At each node x0 = k/_ERF_H on
# [0, 6] the table holds erf(x0) and the next _ERF_D Taylor coefficients
#   c_n = 2/sqrt(pi) * exp(-x0^2) * (-1)^(n-1) * H_(n-1)(x0) / n!,
# H_n the physicists' Hermite polynomials, so each input costs one Horner
# sum in t = |x| - x0, |t| <= 1/(2*_ERF_H), with no branch.  This stays
# within 3 ulp of scipy.special.erf (fewer nodes per unit need a higher
# degree; 1024/4 reaches 31 ulp); erf rounds to 1 from 6 up.  Importing
# scipy.special instead costs about 25 MB of resident memory per process
# (scipy 1.17, x86-64 Linux).
_ERF_H = 4096
_ERF_D = 3


def _erf_taylor_rows() -> list[np.ndarray]:
    """Row n holds c_n at every node, constant term first."""
    x0 = np.arange(6 * _ERF_H + 1) / _ERF_H
    rows = [np.fromiter((math.erf(v) for v in x0), np.float64, count=x0.size)]
    scale = 2.0 / math.sqrt(math.pi) * np.exp(-x0 * x0)
    hermite_prev, hermite = np.zeros_like(x0), np.ones_like(x0)  # H_(n-2), H_(n-1)
    for n in range(1, _ERF_D + 1):
        rows.append(scale * (-1) ** (n - 1) * hermite / math.factorial(n))
        hermite_prev, hermite = hermite, 2.0 * x0 * hermite - 2.0 * (n - 1) * hermite_prev
    return rows


_ERF_ROWS = _erf_taylor_rows()


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise float64 error function."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.minimum(np.abs(x), 6.0)  # +-inf lands on the node 6 exactly
    k = np.rint(ax * _ERF_H)
    # a NaN's index is garbage, clipped into range; t carries the NaN through
    with np.errstate(invalid="ignore"):
        idx = k.astype(np.intp)
    t = ax - k / _ERF_H
    out = _ERF_ROWS[-1].take(idx, mode="clip")
    for row in _ERF_ROWS[-2::-1]:
        out *= t
        out += row.take(idx, mode="clip")
    return np.copysign(out, x)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = _wrap(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = a.data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        return (g * (cdf + a.data * pdf),)

    return _node(out, (a,), backward)


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """Mean over rows of -log softmax(logits[i])[labels[i]], max-subtracted,
    for [B, C] logits and a length-B label vector."""
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise DimensionError(f"cross entropy expects [B, C] logits with B labels, got "
                             f"{logits.shape} and {labels.shape}")
    n_rows, n = logits.shape
    bad = labels[(labels < 0) | (labels >= n)]
    if bad.size:
        raise LabelError(f"label {int(bad[0])} out of range for {n} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    picked = (np.arange(n_rows), labels)
    loss = (np.log(total) - z[picked]).mean()

    def backward(g):
        grad = e / total[:, None]
        grad[picked] -= 1.0
        return (g / n_rows * grad,)

    return _node(np.float64(loss), (logits,), backward)


def unfold1d(a: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Frame [B, L, c] sequences into [B, T, kernel*c] sliding windows
    along the L axis.  Frames are data, so this records no tape node."""
    a = np.asarray(a)
    if a.ndim != 3:
        raise DimensionError(f"unfold1d expects [B, L, c], got {a.shape}")
    batch, length, channels = a.shape
    if kernel < 1 or stride < 1:
        raise DimensionError(f"kernel/stride must be positive, got {kernel}/{stride}")
    n_out = (length - kernel) // stride + 1
    if n_out < 1:
        raise DimensionError(f"input length {length} shorter than kernel {kernel}")
    # [B, L-kernel+1, c, kernel] -> every stride-th window as [B, T, kernel, c]
    windows = np.lib.stride_tricks.sliding_window_view(a, kernel, axis=1)
    windows = np.array(np.swapaxes(windows[:, ::stride], 2, 3))
    return windows.reshape(batch, n_out, kernel * channels)

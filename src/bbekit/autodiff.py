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

from .errors import DimensionError, InputError, LabelError, NumericalError, StateError

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


def require_finite(op: str, values: np.ndarray) -> None:
    """A ``NumericalError`` naming ``op`` if ``values`` holds a NaN or an inf."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{op} produced non-finite values")


def _as_array(data) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class Tensor:
    """Dense float64 array plus optional gradient bookkeeping.

    Leaf tensors created with ``requires_grad=True`` (parameters) carry a
    zero-initialized ``grad`` buffer that ``backward`` accumulates into.
    Interior nodes keep their gradient only transiently during a backward
    pass; a node is interior when it holds a ``_backward``.
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

        # only interior nodes are sorted and visited: a leaf's gradient is
        # added to its ``grad`` where its consumer's backward returns it
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
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._backward is None:
                    parent.grad += pg
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
# the ``functional`` wrappers, and a model's parameters where the model binds
# them.  A gradient is computed only for the parents that require one.  Each
# layer is a forward kernel and a backward kernel over plain arrays; the
# standalone nodes below and ``encoder_block`` call the same kernels, so a
# block's forward has the bits of the chain of nodes.


def _linear_fwd(flat: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[n, d_in] rows @ w + b."""
    out = flat @ w
    out += b
    return out


def _linear_bwd(g, flat, w, need_x: bool, need_w: bool, need_b: bool):
    """Gradients of ``_linear_fwd`` for [n, d_out] ``g``: (x, w, b), each
    None unless needed."""
    return (g @ w.T if need_x else None,
            flat.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None)


def linear(x, weight, bias) -> Tensor:
    """``[..., d_in] @ weight[d_in, d_out] + bias[d_out]``.

    ``weight`` and ``bias`` may instead be equally long sequences of column
    blocks, e.g. ``(wq, wk, wv)`` and ``(bq, bk, bv)``: one GEMM runs over
    the blocks concatenated column-wise, the output's columns follow the
    block order, and each block's gradient is its slice of the columns.
    """
    x = _wrap(x)
    if not isinstance(weight, (list, tuple)):
        weight, bias = _wrap(weight), _wrap(bias)
        w = weight.data
        d_in, d_out = w.shape
        flat = x.data.reshape(-1, d_in)

        def backward(g):
            gx, gw, gb = _linear_bwd(g.reshape(-1, d_out), flat, w, x.requires_grad,
                                     weight.requires_grad, bias.requires_grad)
            return None if gx is None else gx.reshape(x.shape), gw, gb

        out = _linear_fwd(flat, w, bias.data)
        return _node(out.reshape(x.shape[:-1] + (d_out,)), (x, weight, bias), backward)

    weights, biases = [_wrap(t) for t in weight], [_wrap(t) for t in bias]
    w, b = _join_columns(weights), _join_columns(biases)
    d_in, d_out = w.shape
    flat = x.data.reshape(-1, d_in)

    def backward(g):
        gx, gw, gb = _linear_bwd(g.reshape(-1, d_out), flat, w, x.requires_grad,
                                 any(t.requires_grad for t in weights),
                                 any(t.requires_grad for t in biases))
        return (None if gx is None else gx.reshape(x.shape),
                *_split_columns(gw, weights), *_split_columns(gb, biases))

    out = _linear_fwd(flat, w, b)
    return _node(out.reshape(x.shape[:-1] + (d_out,)), (x, *weights, *biases), backward)


def _join_columns(blocks: list[Tensor]) -> np.ndarray:
    """The blocks' arrays concatenated along the last axis."""
    return np.concatenate([t.data for t in blocks], axis=-1)


def _split_columns(grad: np.ndarray | None, blocks: list[Tensor]) -> list[np.ndarray | None]:
    """Each block's column slice of ``grad``, or None where the block needs
    no gradient (``grad`` is None when none does)."""
    if grad is None:
        return [None] * len(blocks)
    parts, start = [], 0
    for block in blocks:
        stop = start + block.shape[-1]
        parts.append(grad[..., start:stop] if block.requires_grad else None)
        start = stop
    return parts


LN_EPS = 1e-5


def _layer_norm_fwd(x: np.ndarray, gain: np.ndarray, shift: np.ndarray):
    """(out, xhat, rstd): the normalized rows x̂ and their 1/std, kept for
    the backward."""
    inv_d = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * inv_d
    xhat = x - mu  # centered, normalized in place below
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_d
    rstd = (var + LN_EPS) ** -0.5
    xhat *= rstd
    out = xhat * gain
    out += shift
    return out, xhat, rstd


def _layer_norm_bwd(g, xhat, rstd, gain, need_x: bool, need_gain: bool, need_shift: bool):
    """Gradients of ``_layer_norm_fwd``: (x, gain, shift), each None unless
    needed."""
    gx = None
    if need_x:
        # rstd * (ĝ - mean(ĝ) - x̂ * mean(ĝ * x̂)) with ĝ = g * gain
        inv_d = 1.0 / xhat.shape[-1]
        ghat = g * gain
        gx = ghat - ghat.sum(axis=-1, keepdims=True) * inv_d
        gx -= xhat * ((ghat * xhat).sum(axis=-1, keepdims=True) * inv_d)
        gx *= rstd
    lead = tuple(range(xhat.ndim - 1))
    return (gx,
            (g * xhat).sum(axis=lead) if need_gain else None,
            g.sum(axis=lead) if need_shift else None)


def layer_norm(x, gain, shift) -> Tensor:
    """``(x - mean) * (var + LN_EPS)**-0.5 * gain + shift`` over the last axis,
    with the population variance."""
    x, gain, shift = _wrap(x), _wrap(gain), _wrap(shift)
    out, xhat, rstd = _layer_norm_fwd(x.data, gain.data, shift.data)
    return _node(out, (x, gain, shift),
                 lambda g: _layer_norm_bwd(g, xhat, rstd, gain.data, x.requires_grad,
                                           gain.requires_grad, shift.requires_grad))


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
    sizes = lengths.tolist()
    length = max(sizes)
    room: list[int] = []  # free positions left in each sequence
    first_slot = [0] * len(sizes)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):  # stable
        n = sizes[i]
        for r, free in enumerate(room):
            if free >= n:
                break
        else:
            r = len(room)
            room.append(length)
        first_slot[i] = r * length + length - room[r]
        room[r] -= n
    first_row = np.cumsum(lengths) - lengths
    slots = np.arange(int(lengths.sum())) + np.repeat(np.array(first_slot) - first_row, lengths)
    # each slot's sample id, -1 on a query's padding and -2 on a key's: a
    # query and a key see each other where both hold the same sample
    ids = np.repeat(np.arange(len(sizes), dtype=np.int32), lengths)
    query = np.full(len(room) * length, -1, dtype=np.int32)
    key = np.full(len(room) * length, -2, dtype=np.int32)
    query[slots] = ids
    key[slots] = ids
    same = query.reshape(len(room), 1, length, 1) == key.reshape(len(room), 1, 1, length)
    return Packing(mask, slots, np.where(same, 0.0, -MASK_NEG))


def _attention_fwd(qkv: np.ndarray, packing: Packing, heads: int):
    """Merged [N, d] head outputs of fused [N, 3d] q/k/v rows, and the
    state the backward reads: the scattered q/k/v rows and the weights."""
    n_rows, width = qkv.shape
    d_head = width // 3 // heads
    n_seqs, _, length, _ = packing.bias.shape
    rows = np.zeros((n_seqs * length, width))
    rows[packing.slots] = qkv
    # [R, L, 3, heads, d_head] -> q, k and v views of [R, heads, L, d_head]
    qh, kh, vh = rows.reshape(n_seqs, length, 3, heads, d_head).transpose(2, 0, 3, 1, 4)
    weights = qh @ kh.swapaxes(-1, -2)  # [R, heads, L, L]
    weights *= 1.0 / np.sqrt(d_head)
    weights += packing.bias
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = np.empty((n_seqs, length, heads, d_head))
    np.matmul(weights, vh, out=merged.transpose(0, 2, 1, 3))
    return merged.reshape(-1, width // 3)[packing.slots], (packing.slots, qh, kh, vh, weights)


def _attention_bwd(g: np.ndarray, state) -> np.ndarray:
    """The [N, 3d] q/k/v rows' gradient from the merged outputs' [N, d]."""
    slots, qh, kh, vh, weights = state
    n_seqs, heads, length, d_head = qh.shape
    d = heads * d_head
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
    out = grads.reshape(-1, 3 * d)[slots]
    out[:, :2 * d] *= 1.0 / np.sqrt(d_head)  # the scores' scale, on the q and k gradients
    return out


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
    out, state = _attention_fwd(qkv.data, packing, heads)
    return _node(out, (qkv,), lambda g: (_attention_bwd(g, state),))


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


def _gelu_fwd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, cdf), the normal CDF at ``a`` kept for the backward."""
    cdf = 0.5 * (1.0 + erf(a * _INV_SQRT2))
    return a * cdf, cdf


def _gelu_bwd(g: np.ndarray, a: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT2PI
    return g * (cdf + a * pdf)


def gelu(a) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    a = _wrap(a)
    out, cdf = _gelu_fwd(a.data)
    return _node(out, (a,), lambda g: (_gelu_bwd(g, a.data, cdf),))


# -- the encoder block: one node ---------------------------------------------

# A block's parameters by suffix, in the order of the node's parents after x.
BLOCK_PARAMS = ("ln1.gain", "ln1.shift",
                "attn.q.weight", "attn.k.weight", "attn.v.weight",
                "attn.q.bias", "attn.k.bias", "attn.v.bias",
                "attn.o.weight", "attn.o.bias", "ln2.gain", "ln2.shift",
                "ffn.w1.weight", "ffn.w1.bias", "ffn.w2.weight", "ffn.w2.bias")


def encoder_block(x, p: dict, heads: int, packing: Packing) -> Tensor:
    """The pre-norm block over packed [N, d] rows, recorded as one node:
    u = x + Wo(Attn([Wq | Wk | Wv](LN1(x)))), y = u + W2(GELU(W1(LN2(u)))),
    each W a linear with its bias.  ``p`` maps the ``BLOCK_PARAMS``
    suffixes to tensors.  Each of the seven layer outputs passes
    ``require_finite`` as soon as it is made, named after its layer:
    ``layer_norm``, ``linear`` or ``attention``.

    The stages run the standalone nodes' kernels in the chain's order, so
    the output has the chain's bits.  The backward runs every stage in
    reverse from the forward's buffers, down to LN1 (the freeze policies
    freeze whole blocks, so a recorded block trains LN1 or passes x a
    gradient), and computes a parameter's gradient only if it needs one.
    Without a recording (``no_grad``, or nothing needs a gradient) the
    q/k/v rows and the attention buffers go before the FFN.
    """
    x = _wrap(x)
    params = [p[name] for name in BLOCK_PARAMS]
    g1, s1, _, _, _, _, _, _, wo, bo, g2, s2, w1, b1, w2, b2 = (t.data for t in params)
    w_qkv, b_qkv = _join_columns(params[2:5]), _join_columns(params[5:8])
    h1, xhat1, rstd1 = _layer_norm_fwd(x.data, g1, s1)
    require_finite("layer_norm", h1)
    qkv = _linear_fwd(h1, w_qkv, b_qkv)
    require_finite("linear", qkv)
    merged, attention = _attention_fwd(qkv, packing, heads)
    del qkv  # the attention state holds the rows it scattered
    require_finite("attention", merged)
    attended = _linear_fwd(merged, wo, bo)
    require_finite("linear", attended)
    u = x.data + attended
    needs = [t.requires_grad for t in (x, *params)]
    if not (is_grad_enabled() and any(needs)):
        del merged, attention
    h2, xhat2, rstd2 = _layer_norm_fwd(u, g2, s2)
    require_finite("layer_norm", h2)
    z = _linear_fwd(h2, w1, b1)
    require_finite("linear", z)
    hidden, cdf = _gelu_fwd(z)
    f = _linear_fwd(hidden, w2, b2)
    require_finite("linear", f)

    def backward(g):
        out = [None] * len(needs)
        gh, out[15], out[16] = _linear_bwd(g, hidden, w2, True, needs[15], needs[16])
        gh = _gelu_bwd(gh, z, cdf)
        gh, out[13], out[14] = _linear_bwd(gh, h2, w1, True, needs[13], needs[14])
        gu, out[11], out[12] = _layer_norm_bwd(gh, xhat2, rstd2, g2, True, needs[11], needs[12])
        gu = g + gu
        gh, out[9], out[10] = _linear_bwd(gu, merged, wo, True, needs[9], needs[10])
        gh = _attention_bwd(gh, attention)
        gh, gw, gb = _linear_bwd(gh, h1, w_qkv, True, any(needs[3:6]), any(needs[6:9]))
        out[3:6] = _split_columns(gw, params[2:5])
        out[6:9] = _split_columns(gb, params[5:8])
        gx, out[1], out[2] = _layer_norm_bwd(gh, xhat1, rstd1, g1, needs[0], needs[1], needs[2])
        if needs[0]:
            out[0] = gu + gx
        return out

    return _node(u + f, (x, *params), backward)


def cross_entropy_with_logits(logits, labels) -> Tensor:
    """Mean over rows of -log softmax(logits[i])[labels[i]], max-subtracted,
    for [B, C] logits and a length-B label vector."""
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise DimensionError(f"cross entropy expects [B, C] logits with B labels, got "
                             f"{logits.shape} and {labels.shape}")
    n_rows, n = logits.shape
    # one comparison: a negative label is a huge unsigned one
    bad = labels.view(np.uint64) >= n
    if bad.any():
        raise LabelError(f"label {int(labels[bad][0])} out of range for {n} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    picked = (np.arange(n_rows), labels)
    loss = (np.log(total) - z[picked]).sum() / n_rows  # the bits of .mean()

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

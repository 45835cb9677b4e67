"""Reverse-mode automatic differentiation over dense float64 arrays.

A small tape-based engine: every op output keeps references to its parents
and a closure that maps the output gradient to parent gradients.  Only the
primitives needed by the encoder stack are provided.  All math is float64
and bit-deterministic for a fixed call order.

Gradient recording is thread-local, so a model with no active tape can be
shared read-only across threads for evaluation under ``no_grad``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, LabelError, StateError

_state = threading.local()


def is_grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    prev = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


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

    __radd__ = __add__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return NotImplemented
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return pow_scalar(self, p)

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


def neg(a) -> Tensor:
    a = _wrap(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data
    return _node(out, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def matmul(a, b) -> Tensor:
    """Matrix product with identical (non-broadcast) batch dimensions."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return (g @ np.swapaxes(b.data, -1, -2),
                np.swapaxes(a.data, -1, -2) @ g)

    return _node(out, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)
    return _node(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), (a,),
                 lambda g: (g.transpose(inverse),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(out, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is None:
        n = a.size
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def pow_scalar(a, p: float) -> Tensor:
    a = _wrap(a)
    p = float(p)
    out = a.data ** p
    return _node(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))


# erf by the piecewise rational approximations of FDLIBM's s_erf.c; it stays
# within 3 ulp of scipy.special.erf.  The coefficients carry this notice:
#   Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#   Developed at SunPro, a Sun Microsystems, Inc. business.
#   Permission to use, copy, modify, and distribute this
#   software is freely granted, provided that this notice
#   is preserved.
# Coefficient tuples run from the constant term up.  Importing
# scipy.special instead costs about 25 MB of resident memory per process
# (scipy 1.17, x86-64 Linux).
_ERX = 8.45062911510467529297e-01
_ERF_P = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
          -2.84817495755985104766e-02, -5.77027029648944159157e-03,
          -2.37630166566501626084e-05)
_ERF_Q = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
          5.08130628187576562776e-03, 1.32494738004321644526e-04,
          -3.96022827877536812320e-06)
_ERF_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
           -3.72207876035701323847e-01, 3.18346619901161753674e-01,
           -1.10894694282396677476e-01, 3.54783043256182359371e-02,
           -2.16637559486879084300e-03)
_ERF_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
           7.18286544141962662868e-02, 1.26171219808761642112e-01,
           1.36370839120290507362e-02, 1.19844998467991074170e-02)
_ERF_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
           -1.05586262253232909814e+01, -6.23753324503260060396e+01,
           -1.62396669462573470355e+02, -1.84605092906711035994e+02,
           -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_ERF_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
           4.34565877475229228821e+02, 6.45387271733267880336e+02,
           4.29008140027567833386e+02, 1.08635005541779435134e+02,
           6.57024977031928170135e+00, -6.04244152148580987438e-02)
_ERF_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
           -1.77579549177547519889e+01, -1.60636384855821916062e+02,
           -6.37566443368389627722e+02, -1.02509513161107724954e+03,
           -4.83519191608651397019e+02)
_ERF_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
           1.53672958608443695994e+03, 3.19985821950859553908e+03,
           2.55305040643316442583e+03, 4.74528541206955367215e+02,
           -2.24409524465858183362e+01)
# interval edges above 0.84375: [PA/QA | RA/SA | RB/SB | 1]
_ERF_EDGES = (1.25, 1.0 / 0.35, 6.0)


def _horner(coeffs: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    out = z * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= z
        out += c
    return out


def erf(x: np.ndarray) -> np.ndarray:
    """Elementwise float64 error function."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x).reshape(-1)
    # |x| < 0.84375: x + x*P(x^2)/Q(x^2), evaluated everywhere on a clipped
    # copy and overwritten below for larger |x|
    small = np.minimum(ax, 0.84375)
    z = small * small
    out = _horner(_ERF_P, z)
    out /= _horner(_ERF_Q, z)
    out *= small
    out += small
    large = np.flatnonzero(ax >= 0.84375)
    if large.size:
        out[large] = _erf_large(ax[large])
    return np.copysign(out.reshape(x.shape), x)


def _erf_large(a: np.ndarray) -> np.ndarray:
    """erf of a >= 0.84375, with one formula per interval between edges."""
    region = np.searchsorted(_ERF_EDGES, a, side="right")
    out = np.ones_like(a)  # erf rounds to 1 from 6 up
    sel = np.flatnonzero(region == 0)
    if sel.size:
        s = a[sel] - 1.0
        out[sel] = _ERX + _horner(_ERF_PA, s) / _horner(_ERF_QA, s)
    for r, num, den in ((1, _ERF_RA, _ERF_SA), (2, _ERF_RB, _ERF_SB)):
        sel = np.flatnonzero(region == r)
        if sel.size:
            # erfc(a) = exp(-a^2 - 0.5625 + R/S) / a; FDLIBM splits exp(-a^2)
            # to keep erfc accurate, which 1 - erfc does not need
            b = a[sel]
            t = 1.0 / (b * b)
            out[sel] = 1.0 - np.exp(_horner(num, t) / _horner(den, t) - b * b - 0.5625) / b
    return out


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


def softmax_last(a, additive_mask: np.ndarray | None = None) -> Tensor:
    """Stable softmax over the last axis.

    ``additive_mask`` is a constant array broadcast onto the logits before
    the max-subtraction; pass large negative values to exclude positions.
    """
    a = _wrap(a)
    z = a.data if additive_mask is None else a.data + additive_mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return ((g - inner) * y,)

    return _node(y, (a,), backward)


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


def unfold1d(a, kernel: int, stride: int) -> Tensor:
    """Frame [B, L, c] sequences into [B, T, kernel*c] sliding windows
    along the L axis."""
    a = _wrap(a)
    if a.ndim != 3:
        raise DimensionError(f"unfold1d expects [B, L, c], got {a.shape}")
    batch, length, channels = a.shape
    if kernel < 1 or stride < 1:
        raise DimensionError(f"kernel/stride must be positive, got {kernel}/{stride}")
    n_out = (length - kernel) // stride + 1
    if n_out < 1:
        raise DimensionError(f"input length {length} shorter than kernel {kernel}")
    # [B, L-kernel+1, c, kernel] -> every stride-th window as [B, T, kernel, c]
    windows = np.lib.stride_tricks.sliding_window_view(a.data, kernel, axis=1)
    windows = np.array(np.swapaxes(windows[:, ::stride], 2, 3))
    out = windows.reshape(batch, n_out, kernel * channels)
    span = stride * (n_out - 1) + 1

    def backward(g):
        ga = np.zeros_like(a.data)
        gw = g.reshape(batch, n_out, kernel, channels)
        for j in range(kernel):
            ga[:, j:j + span:stride] += gw[:, :, j]
        return (ga,)

    return _node(out, (a,), backward)

"""Elementwise product, sum and GELU as tape nodes, for building scalar
losses and the chain of standalone nodes around the primitives under
test, and central finite differences to check their gradients.  The
encoder stack records none of these nodes (its GELU runs inside the block
node, or in the conv frontend, which never trains), so ``bbekit.autodiff``
does not provide them."""

import numpy as np

from bbekit import autodiff as ad


def mul(a, b) -> ad.Tensor:
    a, b = ad._wrap(a), ad._wrap(b)
    return ad._node(a.data * b.data, (a, b),
                    lambda g: (ad._unbroadcast(g * b.data, a.shape),
                               ad._unbroadcast(g * a.data, b.shape)))


def tsum(a, axis=None, keepdims: bool = False) -> ad.Tensor:
    a = ad._wrap(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return ad._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def gelu(a) -> ad.Tensor:
    """``autodiff``'s exact-erf GELU kernels as a node."""
    a = ad._wrap(a)
    out, cdf = ad._gelu_fwd(a.data)
    return ad._node(out, (a,), lambda g: (ad._gelu_bwd(g, a.data, cdf),))


def fd_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        plus = fn(x)
        x[i] = orig - h
        minus = fn(x)
        x[i] = orig
        g[i] = (plus - minus) / (2 * h)
    return g

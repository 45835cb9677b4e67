"""Elementwise product and sum as tape nodes, for building scalar losses
around the primitives under test.  The encoder stack needs neither, so
``bbekit.autodiff`` does not provide them."""

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

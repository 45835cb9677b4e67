"""Deterministic randomness helpers.

Model-level RNG state is a single u64 so it fits the checkpoint format;
each draw spawns a fresh numpy Generator from the current state and then
advances the state with splitmix64.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 step; a cheap, well-mixed u64 -> u64 map."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base: int, index: int) -> int:
    """Stable per-index child seed (corpus iterators, probe draws, ...)."""
    return splitmix64((base & _MASK64) ^ splitmix64(index & _MASK64))


def generator(state: int) -> np.random.Generator:
    """A numpy Generator seeded by ``state`` mod 2**64: any int, a negative
    one too, is a seed, and seeds in [0, 2**64) keep their streams."""
    return np.random.default_rng(state & _MASK64)


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """N(0, std) resampled until every entry lies within +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out

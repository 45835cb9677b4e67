"""AdamW with decoupled weight decay; frozen parameters are skipped."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import ParameterStore


@dataclass(frozen=True)
class AdamWConfig:
    learning_rate: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 0.0 < self.beta1 < 1.0:
            raise ConfigError(f"beta1 must be in (0, 1), got {self.beta1}")
        if not 0.0 < self.beta2 < 1.0:
            raise ConfigError(f"beta2 must be in (0, 1), got {self.beta2}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def adamw_step(store: ParameterStore, cfg: AdamWConfig) -> None:
    """One bias-corrected decoupled-decay update on all non-frozen entries,
    as a fixed handful of numpy operations over the store's flat buffers,
    in place through two temporaries.

    Each entry's bias correction uses its own step counter (one scalar for
    all when the counters agree), so the update has the bits of updating
    entry by entry.  Frozen entries, which hold no moments, are left
    bit-identical (values and step counter).  All gradients are cleared
    afterwards.
    """
    flat = store.flat()
    if not flat.entries:
        return
    for entry in flat.entries:
        entry.step += 1
    steps = [entry.step for entry in flat.entries]
    if min(steps) == max(steps):
        correct1, correct2 = 1.0 - cfg.beta1 ** steps[0], 1.0 - cfg.beta2 ** steps[0]
    else:  # e.g. an entry thawed since the others started
        sizes = [entry.tensor.size for entry in flat.entries]
        correct1, correct2 = (np.repeat([1.0 - beta ** s for s in steps], sizes)
                              for beta in (cfg.beta1, cfg.beta2))
    grad, value, m, v = flat.grad, flat.value, flat.m, flat.v
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    step = np.multiply(grad, 1.0 - cfg.beta1)
    m *= cfg.beta1
    m += step
    np.multiply(grad, 1.0 - cfg.beta2, out=step)
    step *= grad
    v *= cfg.beta2
    v += step
    # step = lr m̂ / (sqrt(v̂) + eps), m̂ = m / correct1 and v̂ = v / correct2
    np.divide(m, correct1, out=step)
    step *= cfg.learning_rate
    denom = np.divide(v, correct2)
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    step /= denom
    if cfg.weight_decay != 0.0:
        value[:flat.n_decay] *= 1.0 - cfg.learning_rate * cfg.weight_decay
    value -= step
    grad[...] = 0.0

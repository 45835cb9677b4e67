"""AdamW with decoupled weight decay; frozen parameters are skipped."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .params import ParameterStore, decays  # noqa: F401  (AdamW's decay rule)


@dataclass(frozen=True)
class AdamWConfig:
    learning_rate: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
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
    as a fixed handful of numpy operations over the store's flat buffers.

    Each entry's bias correction uses its own step counter (one scalar for
    all when the counters agree), so the update has the bits of updating
    entry by entry.  Frozen entries, which hold no moments, are left
    bit-identical (values and step counter).  All gradients are cleared
    afterwards.
    """
    flat = store.flat()
    if not flat.steps.size:
        return
    flat.steps += 1
    lo, hi = int(flat.steps.min()), int(flat.steps.max())
    if lo == hi:
        correct1, correct2 = 1.0 - cfg.beta1 ** lo, 1.0 - cfg.beta2 ** lo
    else:  # e.g. an entry thawed since the others started
        correct1, correct2 = (np.repeat([1.0 - beta ** int(s) for s in flat.steps], flat.sizes)
                              for beta in (cfg.beta1, cfg.beta2))
    grad, value = flat.grad, flat.value
    flat.m *= cfg.beta1
    flat.m += (1.0 - cfg.beta1) * grad
    flat.v *= cfg.beta2
    flat.v += (1.0 - cfg.beta2) * grad * grad
    m_hat = flat.m / correct1
    v_hat = flat.v / correct2
    if cfg.weight_decay != 0.0:
        value[:flat.n_decay] *= 1.0 - cfg.learning_rate * cfg.weight_decay
    value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    grad[...] = 0.0

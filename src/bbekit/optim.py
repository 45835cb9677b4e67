"""AdamW with decoupled weight decay; frozen parameters are skipped."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StateError
from .params import ParameterStore


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


def decays(name: str) -> bool:
    """Decay applies to weight matrices only, never to biases, norm
    parameters, or the zero-initialized copy projections."""
    return name.endswith(".weight") and ".zll." not in name


def adamw_step(store: ParameterStore, cfg: AdamWConfig) -> None:
    """One bias-corrected decoupled-decay update on all non-frozen entries.

    Frozen entries, which hold no moments, are left bit-identical (values
    and step counter).  All gradients are cleared afterwards.
    """
    for name, entry in store.items():
        if entry.frozen:
            continue
        grad = entry.tensor.grad
        value = entry.tensor.data
        if grad.shape != value.shape:
            raise StateError(f"grad shape {grad.shape} != value shape {value.shape} for {name!r}")
        entry.step += 1
        entry.m *= cfg.beta1
        entry.m += (1.0 - cfg.beta1) * grad
        entry.v *= cfg.beta2
        entry.v += (1.0 - cfg.beta2) * grad * grad
        m_hat = entry.m / (1.0 - cfg.beta1 ** entry.step)
        v_hat = entry.v / (1.0 - cfg.beta2 ** entry.step)
        if cfg.weight_decay != 0.0 and decays(name):
            value *= 1.0 - cfg.learning_rate * cfg.weight_decay
        value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    store.zero_grads()

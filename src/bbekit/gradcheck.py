"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import functional as F
from .corpus import pad_frames
from .errors import ConfigError
from .expansion import preservation_probes
from .labels import N_CLASSES
from .model import EncoderModel
from .rngutil import derive_seed

FD_STEP = 1e-6
TOLERANCE = 1e-5
N_PROBES = 100  # parameter entries checked by default


def relative_error(analytic: float, numeric: float) -> float:
    """Error scaled by the larger magnitude, floored at 1 so near-zero
    gradients are compared absolutely."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def check_model_gradients(model: EncoderModel, n_probes: int = N_PROBES, seed: int = 0) -> dict:
    """Compare backprop gradients against central differences on the scalar
    cross-entropy loss at randomly chosen parameter entries.  The input is
    one zero-padded batch of ``preservation_probes``, so every sample is at
    least as long as the model's frontend needs, and padding is exercised.

    Returns {"max_rel_err", "n_probes", "worst": (param, index)}.
    """
    if n_probes < 1:
        raise ConfigError(f"n_probes must be >= 1, got {n_probes}")
    trainable = [name for name, entry in model.store.items() if not entry.frozen]
    if not trainable:
        raise ConfigError("model has no trainable parameters to check")
    frames, mask = pad_frames(preservation_probes(model, seed))
    rng = np.random.default_rng(derive_seed(seed, 1))
    labels = rng.integers(0, N_CLASSES, len(frames)).tolist()

    def loss_value() -> float:
        with ad.no_grad():
            return F.softmax_cross_entropy(model.forward(frames, mask), labels).item()

    model.store.zero_grads()
    F.softmax_cross_entropy(model.forward(frames, mask), labels).backward()
    worst = (0.0, "", ())
    for _ in range(n_probes):
        name = trainable[rng.integers(0, len(trainable))]
        entry = model.store[name]
        index = np.unravel_index(int(rng.integers(0, entry.tensor.size)), entry.tensor.shape)
        analytic = float(entry.tensor.grad[index])

        original = float(entry.tensor.data[index])
        entry.tensor.data[index] = original + FD_STEP
        plus = loss_value()
        entry.tensor.data[index] = original - FD_STEP
        minus = loss_value()
        entry.tensor.data[index] = original

        err = relative_error(analytic, (plus - minus) / (2.0 * FD_STEP))
        if err > worst[0]:
            worst = (err, name, index)

    model.store.zero_grads()
    return {"max_rel_err": worst[0], "n_probes": n_probes, "worst": (worst[1], worst[2])}

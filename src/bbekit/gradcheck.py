"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import functional as F
from .errors import ConfigError
from .labels import N_CLASSES
from .model import EncoderModel

FD_STEP = 1e-6
TOLERANCE = 1e-5


def relative_error(analytic: float, numeric: float) -> float:
    """Error scaled by the larger magnitude, floored at 1 so near-zero
    gradients are compared absolutely."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def check_model_gradients(model: EncoderModel, n_probes: int = 100,
                          seed: int = 0, frames_len: int = 6,
                          h: float = FD_STEP) -> dict:
    """Compare backprop gradients against central differences on the scalar
    cross-entropy loss at randomly chosen (parameter entry, input) probes.

    Returns {"max_rel_err", "n_probes", "worst": (param, index)}.
    """
    if n_probes < 1:
        raise ConfigError(f"n_probes must be >= 1, got {n_probes}")
    rng = np.random.default_rng(seed)
    d_in = model.config.input_dim
    trainable = [name for name, entry in model.store.items() if not entry.frozen]
    if not trainable:
        raise ConfigError("model has no trainable parameters to check")

    def loss_value() -> float:
        with ad.no_grad():
            return F.softmax_cross_entropy(model.forward(frames, mask), labels).item()

    worst = (0.0, "", ())
    probes_done = 0
    while probes_done < n_probes:
        frames = rng.normal(0.0, 1.0, (1, frames_len, d_in))
        mask = np.ones((1, frames_len), dtype=bool)
        if model.config.frontend == "identity" and frames_len > 2:
            mask[0, rng.integers(1, frames_len):] = False  # exercise padding
        labels = [int(rng.integers(0, N_CLASSES))]

        model.store.zero_grads()
        loss = F.softmax_cross_entropy(model.forward(frames, mask), labels)
        loss.backward()

        # several parameter probes per input amortize the analytic pass
        for _ in range(min(8, n_probes - probes_done)):
            name = trainable[rng.integers(0, len(trainable))]
            entry = model.store[name]
            flat_index = int(rng.integers(0, entry.tensor.size))
            index = np.unravel_index(flat_index, entry.tensor.shape)
            analytic = float(entry.tensor.grad[index])

            original = float(entry.tensor.data[index])
            entry.tensor.data[index] = original + h
            plus = loss_value()
            entry.tensor.data[index] = original - h
            minus = loss_value()
            entry.tensor.data[index] = original

            numeric = (plus - minus) / (2.0 * h)
            err = relative_error(analytic, numeric)
            if err > worst[0]:
                worst = (err, name, index)
            probes_done += 1

    model.store.zero_grads()
    return {"max_rel_err": worst[0], "n_probes": probes_done,
            "worst": (worst[1], worst[2])}

"""Finite-difference gradient verification utility."""

import numpy as np
import pytest

from bbekit import autodiff as ad
from bbekit import functional as F
from bbekit.errors import ConfigError
from bbekit.gradcheck import TOLERANCE, check_model_gradients, relative_error
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel


class TestRelativeError:
    def test_large_values_scale(self):
        assert relative_error(100.0, 101.0) == pytest.approx(1.0 / 101.0)

    def test_small_values_compare_absolutely(self):
        # the floor at 1 keeps tiny gradients from inflating the ratio
        assert relative_error(1e-9, 2e-9) == pytest.approx(1e-9)

    def test_exact_match(self):
        assert relative_error(0.5, 0.5) == 0.0


class TestModelGradients:
    def test_tiny_model_passes(self, tiny_model):
        result = check_model_gradients(tiny_model, n_probes=24, seed=1)
        assert result["n_probes"] == 24
        assert result["max_rel_err"] < TOLERANCE
        assert result["worst"][0] in tiny_model.store.names()

    def test_deterministic(self, tiny_model):
        a = check_model_gradients(tiny_model, n_probes=16, seed=2)
        b = check_model_gradients(tiny_model, n_probes=16, seed=2)
        assert a == b

    def test_conv_model_passes(self):
        from test_model import conv_config

        model = EncoderModel.build(conv_config(n_blocks=1), seed=3)
        result = check_model_gradients(model, n_probes=24, seed=1)
        assert result["max_rel_err"] < TOLERANCE

    def test_default_arguments_pass_on_a_receptive_field_of_seven(self):
        # two stride-2 kernel-3 layers, the shape of the benchmark's conv model
        config = EncoderConfig(n_blocks=4, d_model=16, n_heads=2, d_ffn=32, frontend="conv",
                               conv_in_dim=4, conv_layers=[ConvLayerSpec(16, 3, 2)] * 2)
        assert config.min_input_length == 7
        result = check_model_gradients(EncoderModel.build(config, 1))
        assert result["n_probes"] == 100
        assert result["max_rel_err"] < TOLERANCE

    def test_leaves_grads_clean(self, tiny_model):
        check_model_gradients(tiny_model, n_probes=8, seed=0)
        for name in tiny_model.store.names():
            grad = tiny_model.store.grad(name)
            assert not grad.any(), name

    def test_rejects_bad_probe_count(self, tiny_model):
        with pytest.raises(ConfigError):
            check_model_gradients(tiny_model, n_probes=0)

    def test_rejects_fully_frozen(self, tiny_model):
        model = tiny_model.clone()
        model.store.freeze_where(lambda name: True)
        with pytest.raises(ConfigError):
            check_model_gradients(model, n_probes=4)


class TestBatchedLoss:
    def test_ragged_batch_matches_finite_differences(self, tiny_model):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(3, 6, 16))
        mask = np.arange(6) < np.array([6, 2, 4])[:, None]
        labels = [0, 3, 5]

        def loss():
            return F.softmax_cross_entropy(tiny_model.forward(features, mask), labels)

        tiny_model.store.zero_grads()
        loss().backward()
        worst, h = 0.0, 1e-6
        for name, entry in tiny_model.store.items():
            for flat in rng.choice(entry.tensor.size, size=3, replace=False):
                index = np.unravel_index(flat, entry.tensor.shape)
                original = float(entry.tensor.data[index])
                with ad.no_grad():
                    entry.tensor.data[index] = original + h
                    plus = loss().item()
                    entry.tensor.data[index] = original - h
                    minus = loss().item()
                entry.tensor.data[index] = original
                numeric = (plus - minus) / (2.0 * h)
                worst = max(worst, relative_error(float(entry.tensor.grad[index]), numeric))
        tiny_model.store.zero_grads()
        assert worst < TOLERANCE

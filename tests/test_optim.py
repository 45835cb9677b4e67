"""Optimizer update rule against closed-form single-step answers."""

import numpy as np
import pytest

from bbekit.errors import ConfigError, StateError
from bbekit.optim import AdamWConfig, adamw_step, decays
from bbekit.params import ParameterStore


def store_with(name, value, grad, frozen=False):
    store = ParameterStore()
    entry = store.add(name, np.asarray(value, dtype=np.float64), frozen=frozen)
    entry.tensor.grad[...] = grad
    return store


class TestConfig:
    def test_defaults(self):
        cfg = AdamWConfig()
        assert cfg.learning_rate == 1e-5
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.999
        assert cfg.epsilon == 1e-8
        assert cfg.weight_decay == 0.01

    @pytest.mark.parametrize("kwargs", [
        {"beta1": 0.0}, {"beta1": 1.0}, {"beta2": 1.0}, {"beta2": -0.1},
        {"epsilon": 0.0}, {"learning_rate": 0.0}, {"learning_rate": -1.0},
        {"weight_decay": -0.01},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AdamWConfig(**kwargs)


class TestDecayMask:
    def test_weights_decay(self):
        assert decays("block.0.attn.q.weight")
        assert decays("head.weight")

    def test_biases_and_norms_do_not(self):
        assert not decays("block.0.attn.q.bias")
        assert not decays("block.0.ln1.gain")
        assert not decays("block.0.ln1.shift")

    def test_copy_projection_exempt(self):
        assert not decays("block.0x1.zll.weight")
        assert not decays("block.0x1.zll.bias")


class TestSingleStep:
    def test_closed_form_first_step(self):
        # With a constant gradient g, bias correction makes m_hat = g and
        # v_hat = g^2 on step one, so the update is exactly
        # -lr * g / (|g| + eps) regardless of g's magnitude.
        cfg = AdamWConfig(learning_rate=0.1, weight_decay=0.0)
        for g in (1.0, -3.0, 1e-4):
            store = store_with("p.bias", [0.0], [g])
            adamw_step(store, cfg)
            expected = -0.1 * g / (abs(g) + 1e-8)
            np.testing.assert_allclose(store.value("p.bias"), [expected], rtol=1e-12)

    def test_unit_gradient_canonical_value(self):
        # lr=0.1, g=1: step is -0.1 / (1 + 1e-8)
        store = store_with("p.bias", [0.0], [1.0])
        adamw_step(store, AdamWConfig(learning_rate=0.1, weight_decay=0.0))
        np.testing.assert_allclose(store.value("p.bias"), [-0.1 / (1.0 + 1e-8)],
                                   rtol=0, atol=1e-18)

    def test_zero_grad_zero_decay_is_noop(self):
        start = np.array([1.5, -2.5, 0.0])
        store = store_with("p.bias", start, np.zeros(3))
        adamw_step(store, AdamWConfig(learning_rate=0.1, weight_decay=0.0))
        assert np.array_equal(store.value("p.bias"), start)

    def test_decay_applies_to_weight_with_zero_grad(self):
        # decoupled decay: value *= (1 - lr*wd) even when the gradient is 0
        cfg = AdamWConfig(learning_rate=0.1, weight_decay=0.5)
        store = store_with("p.weight", [[2.0]], [[0.0]])
        adamw_step(store, cfg)
        np.testing.assert_allclose(store.value("p.weight"), [[2.0 * (1 - 0.1 * 0.5)]],
                                   rtol=1e-15)

    def test_decay_skips_bias_and_copy_projection(self):
        cfg = AdamWConfig(learning_rate=0.1, weight_decay=0.5)
        for name in ("p.bias", "blk.0x1.zll.weight"):
            store = store_with(name, [4.0], [0.0])
            adamw_step(store, cfg)
            assert np.array_equal(store.value(name), [4.0])

    def test_moments_and_counter_updated(self):
        store = store_with("p.bias", [0.0], [2.0])
        adamw_step(store, AdamWConfig(learning_rate=0.01, weight_decay=0.0))
        entry = store["p.bias"]
        assert entry.step == 1
        np.testing.assert_allclose(entry.m, [0.1 * 2.0], rtol=1e-15)
        np.testing.assert_allclose(entry.v, [0.001 * 4.0], rtol=1e-15)

    def test_grads_cleared_after_step(self):
        store = store_with("p.bias", [0.0], [2.0])
        adamw_step(store, AdamWConfig(learning_rate=0.01))
        assert np.array_equal(store.grad("p.bias"), [0.0])


class TestFreezing:
    def test_frozen_entry_untouched(self):
        store = ParameterStore()
        live = store.add("a.weight", np.array([1.0]))
        frozen = store.add("b.weight", np.array([1.0]), frozen=True)
        live.tensor.grad[...] = 1.0
        assert frozen.tensor.grad is None  # frozen entries hold no gradient
        before = frozen.tensor.data.copy()
        adamw_step(store, AdamWConfig(learning_rate=0.1, weight_decay=0.3))
        assert np.array_equal(frozen.tensor.data, before)
        assert frozen.step == 0
        assert np.array_equal(frozen.m, [0.0])
        assert np.array_equal(frozen.v, [0.0])
        assert not np.array_equal(live.tensor.data, before)

    def test_unfreezing_resumes_updates(self):
        store = ParameterStore()
        store.add("a.bias", np.array([1.0]), frozen=True)
        adamw_step(store, AdamWConfig(learning_rate=0.1))
        store.set_frozen("a.bias", False)
        assert np.array_equal(store.grad("a.bias"), [0.0])  # thawing gives a zero buffer
        store.grad("a.bias")[...] = 1.0
        adamw_step(store, AdamWConfig(learning_rate=0.1, weight_decay=0.0))
        assert store["a.bias"].step == 1
        assert store.value("a.bias")[0] < 1.0


class TestMultiStep:
    def test_two_steps_match_hand_recursion(self):
        cfg = AdamWConfig(learning_rate=0.05, weight_decay=0.0)
        store = store_with("p.bias", [1.0], [0.5])
        adamw_step(store, cfg)
        store.grad("p.bias")[...] = -0.25
        adamw_step(store, cfg)

        # replay the recursion with scalars
        value, m, v = 1.0, 0.0, 0.0
        for step, g in ((1, 0.5), (2, -0.25)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            value -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(store.value("p.bias"), [value], rtol=1e-14)

    def test_shape_mismatch_rejected(self):
        store = ParameterStore()
        entry = store.add("p.bias", np.zeros(3))
        entry.tensor.grad = np.zeros(2)
        with pytest.raises(StateError):
            adamw_step(store, AdamWConfig())

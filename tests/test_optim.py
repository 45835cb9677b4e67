"""Optimizer update rule against closed-form single-step answers."""

import tracemalloc

import numpy as np
import pytest

from bbekit.errors import ConfigError, StateError
from bbekit.optim import AdamWConfig, adamw_step
from bbekit.params import ParameterStore, decays


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
        assert frozen.m is None and frozen.v is None  # nor AdamW moments
        assert not np.array_equal(live.tensor.data, before)

    def test_frozen_entries_hold_no_moments(self):
        store = ParameterStore()
        frozen = store.add("a.weight", np.ones(2), frozen=True, m=np.ones(2), v=np.ones(2))
        assert frozen.m is None and frozen.v is None  # given moments are dropped
        live = store.add("b.weight", np.ones(2), m=[0.5, 0.25])
        assert np.array_equal(live.m, [0.5, 0.25]) and np.array_equal(live.v, [0.0, 0.0])
        live.step = 7
        store.set_frozen("b.weight", True)
        assert live.m is None and live.v is None and live.tensor.grad is None
        assert live.step == 7
        store.set_frozen("b.weight", False)  # thawing starts fresh AdamW state
        assert np.array_equal(live.m, [0.0, 0.0]) and np.array_equal(live.v, [0.0, 0.0])
        assert live.step == 0

    def test_snapshot_restore_brings_back_the_flat_state(self):
        store = ParameterStore()
        live = store.add("a.bias", np.array([1.0]), m=[0.5], v=[0.25], step=3)
        frozen = store.add("b.bias", np.array([2.0]), frozen=True, step=4)
        flat, value, m, v, steps = snap = store.snapshot()
        assert flat is store.flat()  # the trainable entry's buffers only
        assert (value.tolist(), m.tolist(), v.tolist(), steps.tolist()) == (
            [1.0], [0.5], [0.25], [3])
        live.tensor.grad[...] = 1.0
        adamw_step(store, AdamWConfig(learning_rate=0.1))
        store.restore(snap)
        assert (live.tensor.data[0], live.m[0], live.v[0], live.step) == (1.0, 0.5, 0.25, 3)
        assert (frozen.tensor.data[0], frozen.step) == (2.0, 4)
        store.value("a.bias")[...] = 7.0  # the snapshot holds copies
        store.restore(snap)
        assert live.tensor.data[0] == 1.0

    @pytest.mark.parametrize("change", [
        lambda store: store.set_frozen("a.bias", True),
        lambda store: store.set_frozen("b.bias", False),
        lambda store: store.add("c.bias", np.zeros(1)),
        lambda store: store.replace("a.bias", np.zeros(1)),
    ], ids=["freeze", "thaw", "add", "replace"])
    def test_restore_after_a_new_layout_raises(self, change):
        store = ParameterStore()
        store.add("a.bias", np.array([1.0]))
        store.add("b.bias", np.array([2.0]), frozen=True)
        snap = store.snapshot()
        change(store)
        with pytest.raises(StateError):
            store.restore(snap)
        store.flat()  # laid out again: still not the snapshot's buffers
        with pytest.raises(StateError):
            store.restore(snap)

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


def per_entry_adamw(store, cfg):
    """The per-entry AdamW loop the flat update replaced, kept as the oracle
    it must match bit for bit."""
    for name, entry in store.items():
        if entry.frozen:
            continue
        grad = entry.tensor.grad
        value = entry.tensor.data
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
    for _, entry in store.items():
        if entry.tensor.grad is not None:
            entry.tensor.grad[...] = 0.0


CFG = AdamWConfig(learning_rate=0.05, weight_decay=0.3)


def set_grads(stores, step):
    """The same seeded gradient on every trainable entry of each store."""
    for name, entry in stores[0].items():
        if not entry.frozen:
            rng = np.random.default_rng([step, *name.encode()])
            g = rng.normal(size=entry.tensor.shape) * 10.0 ** rng.integers(-3, 2)
            for store in stores:
                store.grad(name)[...] = g


def assert_same_state(a, b):
    assert a.names() == b.names()
    for name, ea in a.items():
        eb = b[name]
        assert ea.frozen == eb.frozen and ea.step == eb.step, name
        assert ea.tensor.data.tobytes() == eb.tensor.data.tobytes(), name
        if ea.frozen:
            assert ea.m is None and eb.m is None
        else:
            assert ea.m.tobytes() == eb.m.tobytes() and ea.v.tobytes() == eb.v.tobytes(), name


class TestFlatUpdate:
    # names in an order that mixes decaying weights with biases, norm
    # parameters and ZLL gates, which take no decay
    NAMES = {"block.0.ln1.gain": (3,), "block.0.attn.q.weight": (3, 3),
             "block.0.attn.q.bias": (3,), "block.0x1.zll.weight": (3, 3),
             "block.0x1.zll.bias": (3,), "block.0.ffn.w1.weight": (3, 4),
             "frontend.conv0.weight": (2, 3), "head.weight": (3, 6), "head.bias": (6,)}

    def build(self):
        store = ParameterStore()
        rng = np.random.default_rng(5)
        for name, shape in self.NAMES.items():
            store.add(name, rng.normal(size=shape),
                      frozen=name.startswith("frontend.") or name == "block.0.ffn.w1.weight")
        return store

    def test_bit_identical_to_the_per_entry_loop(self):
        flat, oracle = self.build(), self.build()
        for step in range(1, 7):
            if step == 3:  # thawed, its counter now runs behind the others'
                for store in (flat, oracle):
                    store.set_frozen("block.0.ffn.w1.weight", False)
            set_grads([flat, oracle], step)
            adamw_step(flat, CFG)
            per_entry_adamw(oracle, CFG)
            assert_same_state(flat, oracle)
        assert flat["block.0.ffn.w1.weight"].step == 4 and flat["head.bias"].step == 6
        assert flat["frontend.conv0.weight"].step == 0

    def test_five_steps_in_place_through_two_temporaries(self):
        # the update writes the flat buffers in place and allocates at most
        # two buffer-sized temporaries per call, plus the two per-entry
        # correction arrays while the counters differ (steps 2-5 here)
        shapes = {"a.weight": (200, 50), "a.bias": (50,), "b.weight": (100, 40)}

        def build():
            store, rng = ParameterStore(), np.random.default_rng(9)
            for name, shape in shapes.items():
                store.add(name, rng.normal(size=shape), frozen=name == "b.weight")
            return store

        flat, oracle = build(), build()
        for step in range(1, 6):
            if step == 2:  # thawed, its counter now runs behind the others'
                for store in (flat, oracle):
                    store.set_frozen("b.weight", False)
            buffers = flat.flat()
            arrays = [buffers.value, buffers.grad, buffers.m, buffers.v]
            set_grads([flat, oracle], step)
            tracemalloc.start()
            adamw_step(flat, CFG)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            per_entry_adamw(oracle, CFG)
            assert_same_state(flat, oracle)
            assert all(a is b for a, b in zip(arrays, (buffers.value, buffers.grad,
                                                       buffers.m, buffers.v)))
            size = buffers.value.nbytes
            assert peak <= (2 if step == 1 else 4) * size + 4096, (step, peak, size)
        assert flat["b.weight"].step == 4 and flat["a.bias"].step == 5

    def test_decay_follows_the_name(self):
        store = self.build()
        before = {name: store.value(name).copy() for name in store.names()}
        adamw_step(store, AdamWConfig(learning_rate=0.1, weight_decay=0.5))  # zero gradients
        for name in store.names():
            shrunk = 0.95 * before[name] if decays(name) and not store[name].frozen else before[name]
            assert np.array_equal(store.value(name), shrunk), name

    def test_step_reads_only_the_flat_buffers(self, monkeypatch):
        # per-step work does not walk the entries, frozen ones included
        store = self.build()
        store.n_params(only_trainable=True)  # lays the buffers out

        def walk(*_):
            raise AssertionError("walked the entries")

        monkeypatch.setattr(store, "items", walk)
        monkeypatch.setattr(store, "_lay_out", walk)
        adamw_step(store, CFG)
        assert store.n_params(only_trainable=True) == 3 + 9 + 3 + 9 + 3 + 18 + 6

    def test_buffers_are_laid_out_once(self):
        store = self.build()
        flat = store.flat()
        adamw_step(store, CFG)
        store.zero_grads()
        assert store.flat() is flat
        assert np.shares_memory(store.value("head.weight"), flat.value)
        store.set_frozen("head.bias", True)  # keeps its value, in its own array
        assert store.flat() is not flat
        assert not np.shares_memory(store.value("head.bias"), flat.value)
        assert not np.shares_memory(store.value("head.weight"), flat.value)

    def test_updates_seen_after_every_store_change(self, tmp_path):
        from bbekit.checkpoint import load_checkpoint, save_checkpoint
        from bbekit.model import EncoderConfig, EncoderModel

        subject = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=4, n_heads=2, d_ffn=8),
                                     seed=3)
        subject.store.set_frozen("block.0.attn.q.weight", True)
        oracle = subject.clone()
        step = 0

        def train(n=2):
            nonlocal step
            for _ in range(n):
                step += 1
                set_grads([subject.store, oracle.store], step)
                adamw_step(subject.store, CFG)
                per_entry_adamw(oracle.store, CFG)
            assert_same_state(subject.store, oracle.store)

        train()
        for model in (subject, oracle):
            model.reinit_head()  # replace
        train()
        for model in (subject, oracle):
            model.store.set_frozen("block.0.attn.q.weight", False)
            model.store.set_frozen("block.0.ln1.gain", True)
        train()
        snapshots = (subject.store.snapshot(), oracle.store.snapshot())
        train()
        subject.store.restore(snapshots[0])
        oracle.store.restore(snapshots[1])
        train()
        subject, oracle = subject.clone(), oracle.clone()
        train()
        save_checkpoint(tmp_path / "s.bbex", subject)
        save_checkpoint(tmp_path / "o.bbex", oracle)
        assert (tmp_path / "s.bbex").read_bytes() == (tmp_path / "o.bbex").read_bytes()
        subject, oracle = load_checkpoint(tmp_path / "s.bbex"), load_checkpoint(tmp_path / "o.bbex")
        train()
        save_checkpoint(tmp_path / "s.bbex", subject)
        save_checkpoint(tmp_path / "o.bbex", oracle)
        assert (tmp_path / "s.bbex").read_bytes() == (tmp_path / "o.bbex").read_bytes()

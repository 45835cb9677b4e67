"""Model construction, parameter accounting, and forward-pass behaviour."""

import math
import re

import numpy as np
import pytest

from bbekit import autodiff as ad
from bbekit import functional as F
from bbekit import model as model_mod
from bbekit.autodiff import BLOCK_PARAMS, Tensor
from bbekit.errors import ConfigError, DimensionError, InputError, StateError
from bbekit.expansion import ExpansionSpec, expand
from bbekit.labels import N_CLASSES
from bbekit.model import (
    BlockInfo,
    ConvLayerSpec,
    EncoderConfig,
    EncoderModel,
    conv_output_length,
    dataclass_from,
    param_layout,
)
from bbekit.optim import AdamWConfig
from bbekit.params import ParameterStore
from bbekit.trainer import TrainConfig

from tape_ops import mul, tsum
from test_functional import np_block, np_gelu


def conv_config(**overrides):
    base = dict(n_blocks=2, d_model=8, n_heads=2, d_ffn=16, frontend="conv",
                conv_layers=[ConvLayerSpec(4, 2, 2), ConvLayerSpec(8, 2, 2)],
                conv_in_dim=3)
    base.update(overrides)
    return EncoderConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        EncoderConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"n_blocks": 0},
        {"d_model": 6, "n_heads": 4},
        {"d_ffn": 0},
        {"frontend": "mel"},
        {"frontend": "conv"},  # no conv layers given
        {"conv_layers": [ConvLayerSpec(4, 2, 2)]},  # layers without conv frontend
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            EncoderConfig(**kwargs).validate()

    def test_conv_last_layer_must_match_width(self):
        with pytest.raises(ConfigError):
            conv_config(conv_layers=[ConvLayerSpec(4, 2, 2)]).validate()

    def test_conv_in_dim_must_be_positive(self):
        with pytest.raises(ConfigError):
            conv_config(conv_in_dim=0).validate()

    def test_from_dict_defaults_and_unknown_keys(self):
        assert EncoderConfig.from_dict({}) == EncoderConfig()
        with pytest.raises(ConfigError, match="'unknown'"):
            EncoderConfig.from_dict({"unknown": 1})

    @pytest.mark.parametrize("cls,key,value", [
        (EncoderConfig, "n_blocks", 2.7), (EncoderConfig, "d_model", 16.9),
        (EncoderConfig, "n_blocks", True), (TrainConfig, "batch_size", True),
        (TrainConfig, "frame_cap", 20.5), (AdamWConfig, "learning_rate", True),
    ])
    def test_truncating_value_rejected(self, cls, key, value):
        with pytest.raises(ConfigError, match=key):
            dataclass_from(cls, {key: value})

    @pytest.mark.parametrize("key,value,want", [
        ("batch_size", 4, 4), ("batch_size", 4.0, 4), ("frame_cap", None, None),
    ])
    def test_whole_numbers_and_null_still_load(self, key, value, want):
        got = getattr(dataclass_from(TrainConfig, {key: value}), key)
        assert got == want and type(got) is type(want)

    def test_dict_roundtrip(self):
        cfg = conv_config()
        again = EncoderConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_blockinfo_dict_roundtrip(self):
        info = BlockInfo("2x1", "expanded", source="2")
        assert BlockInfo.from_dict(info.to_dict()) == info


def layout_count(layout, prefix=""):
    return sum(math.prod(shape) for name, shape in layout.items()
               if name.startswith(prefix))


class TestParameterAccounting:
    def test_block_count_formula_matches_store(self, tiny_model):
        # d=16, f=32: four d x d projections and their biases, two layer
        # norms, and the two FFN matrices with their biases
        d, f = 16, 32
        per_block = sum(tiny_model.store.value(name).size
                        for name in tiny_model.store.names() if name.startswith("block.0."))
        assert per_block == 4 * d * d + 4 * d + 4 * d + 2 * d * f + f + d
        layout = param_layout(tiny_model.config, tiny_model.block_index)
        assert layout_count(layout, "block.0.") == per_block

    def test_identity_model_total(self, tiny_config, tiny_model):
        layout = param_layout(tiny_config, tiny_model.block_index)
        assert list(layout) == tiny_model.store.names()
        assert tiny_model.store.n_params() == layout_count(layout)

    def test_conv_model_total(self):
        cfg = conv_config()
        model = EncoderModel.build(cfg, seed=5)
        layout = param_layout(cfg, model.block_index)
        # conv stack: (2*3*4 + 4) + (2*4*8 + 8) = 100
        assert layout_count(layout, "frontend.") == 100
        assert model.store.n_params() == layout_count(layout)

    def test_head_count(self, tiny_config, tiny_model):
        layout = param_layout(tiny_config, tiny_model.block_index)
        assert layout_count(layout, "head.") == 16 * 6 + 6

    def test_expanded_blocks_carry_their_gate(self, tiny_config):
        index = [BlockInfo("0", "original"), BlockInfo("0x1", "expanded", "0")]
        layout = param_layout(tiny_config, index)
        assert "block.0.zll.weight" not in layout
        assert layout["block.0x1.zll.weight"] == (16, 16)
        assert layout["block.0x1.zll.bias"] == (16,)
        assert layout_count(layout, "block.0x1.") == layout_count(layout, "block.0.") + 16 * 16 + 16

    def test_conv_frontend_frozen_by_default(self):
        model = EncoderModel.build(conv_config(), seed=5)
        for name, entry in model.store.items():
            if name.startswith("frontend."):
                assert entry.frozen
            else:
                assert not entry.frozen


class TestDeterminism:
    def test_same_seed_builds_identical_models(self, tiny_config):
        a = EncoderModel.build(tiny_config, seed=99)
        b = EncoderModel.build(tiny_config, seed=99)
        assert a.store.names() == b.store.names()
        for name in a.store.names():
            assert np.array_equal(a.store.value(name), b.store.value(name)), name
        assert a.rng_state == b.rng_state

    def test_different_seeds_differ(self, tiny_config):
        a = EncoderModel.build(tiny_config, seed=1)
        b = EncoderModel.build(tiny_config, seed=2)
        assert not np.array_equal(a.store.value("block.0.attn.q.weight"),
                                  b.store.value("block.0.attn.q.weight"))

    def test_forward_repeatable(self, tiny_model, rng):
        frames = rng.normal(size=(7, 16))
        assert np.array_equal(tiny_model.logits(frames), tiny_model.logits(frames))

    def test_init_weights_within_truncation(self, tiny_model):
        w = tiny_model.store.value("block.0.attn.q.weight")
        assert np.abs(w).max() <= 2.0 * 0.02
        assert w.std() > 0.01  # actually random, not degenerate


class TestForward:
    def test_logit_shape(self, tiny_model, rng):
        assert tiny_model.logits(rng.normal(size=(5, 16))).shape == (6,)

    def test_zero_head_weight_gives_bias(self, tiny_model, rng):
        model = tiny_model.clone()
        model.store.value("head.weight")[...] = 0.0
        model.store.value("head.bias")[...] = np.arange(6.0)
        out = model.logits(rng.normal(size=(4, 16)))
        assert np.array_equal(out, np.arange(6.0))

    def test_padded_rows_cannot_affect_logits(self, tiny_model, rng):
        frames = rng.normal(size=(6, 16))
        mask = np.array([True, True, True, True, False, False])
        base = tiny_model.logits(frames, mask)
        frames2 = frames.copy()
        frames2[4:] = rng.normal(size=(2, 16)) * 50.0
        assert np.array_equal(base, tiny_model.logits(frames2, mask))

    def test_full_mask_equals_no_mask(self, tiny_model, rng):
        frames = rng.normal(size=(5, 16))
        with_mask = tiny_model.logits(frames, np.ones(5, dtype=bool))
        assert np.allclose(with_mask, tiny_model.logits(frames), rtol=0, atol=1e-12)

    def test_matches_numpy_composition(self, tiny_model, rng):
        frames = rng.normal(size=(3, 16))
        expected = frames
        for info in tiny_model.block_index:
            expected = np_block(expected, tiny_model.block_params()[info.block_id],
                                tiny_model.config.n_heads)
        pooled = expected.mean(axis=0)
        expected = pooled @ tiny_model.store.value("head.weight") + tiny_model.store.value("head.bias")
        np.testing.assert_allclose(tiny_model.logits(frames), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_bad_inputs_rejected(self, tiny_model):
        with pytest.raises(InputError):
            tiny_model.forward(np.zeros((0, 16)))
        with pytest.raises(InputError):
            tiny_model.forward(np.zeros(16))
        bad = np.zeros((2, 16))
        bad[0, 0] = np.nan
        with pytest.raises(InputError):
            tiny_model.forward(bad)
        with pytest.raises(InputError):
            tiny_model.forward(np.zeros((2, 16)), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("frames, mask", [
        ([[0.0] * 16, [0.0] * 15], None),  # ragged frames
        ([[[0.0] * 16] * 2, [[0.0] * 16]], None),  # a ragged batch
        (np.zeros((2, 16)), [True, [True]]),  # a ragged mask
        (np.zeros((2, 2, 16)), [[True, True], [True]]),  # a ragged batch mask
        ("abc", None),
    ], ids=["ragged frames", "ragged batch", "ragged mask", "ragged batch mask", "text"])
    def test_input_that_is_no_array_is_input_error(self, tiny_model, frames, mask):
        with pytest.raises(InputError):
            tiny_model.logits(frames, mask)

    def test_width_mismatch_rejected(self, tiny_model):
        with pytest.raises(DimensionError):
            tiny_model.forward(np.zeros((3, 8)))


class TestBlockParams:
    def test_built_once_per_store_change(self, tiny_model, rng):
        model = tiny_model.clone()
        blocks = model.block_params()
        model.logits(rng.normal(size=(4, 16)))
        model.store.set_frozen("block.0.ln1.gain", True)  # rebinds no tensor
        assert model.block_params() is blocks
        model.store.replace("head.bias", np.zeros(N_CLASSES))
        assert model.block_params() is not blocks
        model.store = model.clone().store
        assert model.block_params()["0"]["ln1.gain"] is model.store.tensor("block.0.ln1.gain")

    def test_replaced_block_entry_reaches_the_next_forward(self, tiny_model, rng):
        model = tiny_model.clone()
        frames = rng.normal(size=(5, 16))
        before = model.logits(frames)
        model.store.replace("block.1.ffn.w2.bias", np.full(16, 0.5))
        fresh = model.store.tensor("block.1.ffn.w2.bias")
        assert model.block_params()["1"]["ffn.w2.bias"] is fresh
        after = model.logits(frames)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, model.clone().logits(frames))  # a fresh map


def hand_made(model, name, value):
    """``model`` over a store built entry by entry, with ``name`` bound to
    ``value``: no bind-time check has seen it."""
    store = ParameterStore()
    for key, entry in model.store.items():
        store.add(key, value if key == name else entry.tensor.data, frozen=entry.frozen)
    model.store = store
    return model


class TestBoundShapes:
    """Parameter shapes are checked where parameters are bound, so the
    forward checks none of them."""

    def test_every_parameter_shape_is_checked(self, tiny_model):
        # each of a block's parameters, the head and an expanded block's
        # gate: replace takes only the entry's own shape
        model = expand(tiny_model, ExpansionSpec(2, "non-frozen"))
        names = ([f"block.0.{name}" for name in BLOCK_PARAMS]
                 + ["block.0x1.zll.weight", "block.0x1.zll.bias", "head.weight", "head.bias"])
        for name in names:
            entry = model.store[name]
            for shape in ((entry.tensor.shape[0] + 1,) + entry.tensor.shape[1:],
                          entry.tensor.shape[::-1] + (1,)):
                with pytest.raises(DimensionError, match=f"^{re.escape(name)} has shape"):
                    model.store.replace(name, np.zeros(shape))
                assert model.store[name] is entry

    def test_build_checks_what_it_draws(self, tiny_config, monkeypatch):
        # a weight drawn one column too wide never reaches a forward
        monkeypatch.setattr(model_mod, "truncated_normal",
                            lambda rng, shape, std: np.zeros(shape[:-1] + (shape[-1] + 1,)))
        with pytest.raises(DimensionError, match=r"^block\.0\.attn\.q\.weight has shape"):
            EncoderModel.build(tiny_config, seed=0)

    def test_expand_checks_what_it_binds(self, tiny_model):
        model = hand_made(tiny_model.clone(), "block.1.ffn.w1.bias", np.zeros(31))
        with pytest.raises(DimensionError, match=r"^block\.1\.ffn\.w1\.bias has shape \(31,\)"):
            expand(model, ExpansionSpec(2))

    @pytest.mark.parametrize("change, message", [
        (lambda store: store.add("block.0.extra.weight", np.zeros((2, 2))),
         "block.0.extra.weight is bound but not laid out"),
        (lambda store: store._entries.pop("head.bias"),
         r"head.bias is laid out as \(6,\) but not bound"),
    ], ids=["extra", "missing"])
    def test_layout_names_a_missing_or_extra_entry(self, tiny_model, change, message):
        model = tiny_model.clone()
        change(model.store)
        with pytest.raises(DimensionError, match=message):
            model.check_layout()

    def test_a_bound_model_passes(self, tiny_model, rng):
        tiny_model.check_layout()
        grown = expand(tiny_model, ExpansionSpec(3, "head-only"))
        grown.check_layout()
        frames = rng.normal(size=(4, 16))
        assert np.array_equal(grown.logits(frames), tiny_model.logits(frames))


class TestConvFrontend:
    def test_output_length_formula(self):
        # kernel 2 stride 2 halves the length: 8 -> 4
        assert conv_output_length(8, [ConvLayerSpec(4, 2, 2)]) == 4
        assert conv_output_length(9, [ConvLayerSpec(4, 2, 2)]) == 4
        assert conv_output_length(8, [ConvLayerSpec(4, 2, 2), ConvLayerSpec(8, 2, 2)]) == 2
        assert conv_output_length(1, [ConvLayerSpec(4, 2, 2)]) == 0

    @pytest.mark.parametrize("layers", [
        [ConvLayerSpec(4, 2, 2), ConvLayerSpec(8, 2, 2)],
        [ConvLayerSpec(16, 3, 2), ConvLayerSpec(16, 3, 2)],
        [ConvLayerSpec(8, 5, 1), ConvLayerSpec(8, 3, 3), ConvLayerSpec(8, 4, 2)],
    ])
    def test_min_input_length_is_the_receptive_field(self, layers):
        cfg = conv_config(conv_layers=layers)
        shortest = cfg.min_input_length
        assert conv_output_length(shortest, layers) == 1
        assert conv_output_length(shortest - 1, layers) == 0

    @pytest.mark.parametrize("layers", [
        [ConvLayerSpec(4, 2, 2), ConvLayerSpec(8, 2, 2)],
        [ConvLayerSpec(8, 5, 1), ConvLayerSpec(8, 3, 3), ConvLayerSpec(8, 4, 2)],
        [ConvLayerSpec(8, 1, 1)],
    ])
    def test_output_length_of_an_array_is_the_loop_over_its_lengths(self, layers):
        # the reference is the per-length loop, 0 from the first layer
        # that leaves no frame
        def loop(n):
            for layer in layers:
                n = (n - layer.kernel) // layer.stride + 1
                if n < 1:
                    return 0
            return n

        lengths = np.arange(0, 80)
        out = conv_output_length(lengths, layers)
        assert out.shape == lengths.shape
        assert out.tolist() == [loop(int(n)) for n in lengths]

    def test_identity_min_input_length(self, tiny_config):
        assert tiny_config.min_input_length == 1

    def test_forward_shape(self):
        model = EncoderModel.build(conv_config(), seed=5)
        out = model.logits(np.random.default_rng(0).normal(size=(8, 3)))
        assert out.shape == (6,)

    def test_too_short_input_rejected(self):
        model = EncoderModel.build(conv_config(), seed=5)
        with pytest.raises(InputError):
            model.forward(np.zeros((1, 3)))

    def test_wrong_input_channels_rejected(self):
        model = EncoderModel.build(conv_config(), seed=5)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((8, 4)))

    def test_suffix_padding_equals_trimmed_input(self):
        model = EncoderModel.build(conv_config(), seed=5)
        rng = np.random.default_rng(1)
        frames = rng.normal(size=(8, 3))
        padded = np.vstack([frames, rng.normal(size=(4, 3)) * 10.0])
        mask = np.array([True] * 8 + [False] * 4)
        assert np.array_equal(model.logits(padded, mask), model.logits(frames))

    def test_interior_padding_rejected(self):
        model = EncoderModel.build(conv_config(), seed=5)
        mask = np.array([True, False, True, True, True, True, True, True])
        with pytest.raises(InputError):
            model.forward(np.zeros((8, 3)), mask)

    def test_single_layer_matches_hand_conv(self):
        cfg = EncoderConfig(n_blocks=1, d_model=4, n_heads=2, d_ffn=8,
                            frontend="conv", conv_layers=[ConvLayerSpec(4, 2, 2)],
                            conv_in_dim=3)
        model = EncoderModel.build(cfg, seed=7)
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(6, 3))
        w = model.store.value("frontend.conv0.weight")
        b = model.store.value("frontend.conv0.bias")
        windows = np.stack([frames[0:2].ravel(), frames[2:4].ravel(), frames[4:6].ravel()])
        expected = np_gelu(windows @ w + b)

        # observe the frontend output through a model whose single block is an
        # identity (zeroed output projections) and whose head picks out the
        # pooled coordinates
        ident = model.clone()
        p = ident.block_params()["0"]
        for suffix in ("attn.o.weight", "attn.o.bias", "ffn.w2.weight", "ffn.w2.bias"):
            p[suffix].data[...] = 0.0
        hw = np.zeros((4, 6))
        hw[:, :4] = np.eye(4)
        ident.store.value("head.weight")[...] = hw
        ident.store.value("head.bias")[...] = 0.0
        out = ident.logits(frames)[:4]
        np.testing.assert_allclose(out, expected.mean(axis=0), rtol=1e-12, atol=1e-12)


class TestBatchAxis:
    def test_identity_frontend_rows_are_the_masked_frames(self):
        # batch-major, the dropped frames left out; frames are data, so the
        # rows need no gradient
        model = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=2, n_heads=1, d_ffn=4),
                                   seed=0)
        mask = np.array([[True, False, True], [False, True, False]])
        rows, out_mask = model.frontend_rows(np.arange(12.0).reshape(2, 3, 2), mask)
        np.testing.assert_array_equal(rows.data, [[0, 1], [4, 5], [8, 9]])
        assert np.array_equal(out_mask, mask)
        assert not rows.requires_grad

    @pytest.mark.parametrize("frontend", ["identity", "conv"])
    def test_batched_rows_match_single_forwards(self, tiny_model, frontend):
        # ragged suffix masks, junk in the padding, and padding beyond the
        # longest sample: each row equals that sample forwarded alone
        if frontend == "identity":
            model, lengths = tiny_model, np.array([7, 3, 5, 1])
        else:
            model, lengths = EncoderModel.build(conv_config(), seed=5), np.array([12, 5, 9, 4])
        rng = np.random.default_rng(8)
        d, t_max = model.config.input_dim, int(lengths.max()) + 2
        features = rng.normal(size=(len(lengths), t_max, d)) * 10.0
        mask = np.arange(t_max) < lengths[:, None]
        batched = model.logits(features, mask)
        assert batched.shape == (len(lengths), N_CLASSES)
        for i, n in enumerate(lengths):
            np.testing.assert_allclose(batched[i], model.logits(features[i, :n]),
                                       rtol=1e-12, atol=1e-12)

    @staticmethod
    def ragged_batch(frontend, tiny_model):
        if frontend == "identity":
            model, lengths = tiny_model, np.array([7, 3, 5, 1])
        else:
            model, lengths = EncoderModel.build(conv_config(), seed=5), np.array([12, 5, 9, 4])
        rng = np.random.default_rng(9)
        features = rng.normal(size=(len(lengths), int(lengths.max()) + 2,
                                    model.config.input_dim))
        return model, features, np.arange(features.shape[1]) < lengths[:, None]

    @pytest.mark.parametrize("frontend", ["identity", "conv"])
    def test_padded_frame_values_never_reach_the_logits(self, tiny_model, frontend):
        model, features, mask = self.ragged_batch(frontend, tiny_model)
        base = model.logits(features, mask)
        for junk in (0.0, 1e6, -3.5):
            other = features.copy()
            other[~mask] = junk
            assert np.array_equal(model.logits(other, mask), base)

    @pytest.mark.parametrize("frontend", ["identity", "conv"])
    def test_ragged_batch_gradient_is_the_sum_over_samples(self, tiny_model, frontend):
        # the batch loss is the mean over samples, so B times its gradient
        # is the sum of the gradients of each sample run alone
        model, features, mask = self.ragged_batch(frontend, tiny_model)
        labels = np.arange(len(mask)) % N_CLASSES
        trainable = [name for name, entry in model.store.items() if not entry.frozen]

        def grads(frames, pad_mask, labels):
            model.store.zero_grads()
            F.softmax_cross_entropy(model.forward(frames, pad_mask), labels).backward()
            return {name: model.store.grad(name).copy() for name in trainable}

        batch = grads(features, mask, labels)
        singles = [grads(features[i:i + 1, :n], np.ones((1, n), bool), labels[i:i + 1])
                   for i, n in enumerate(mask.sum(axis=1))]
        scale = max(np.abs(g).max() for g in batch.values())
        for name in trainable:
            summed = sum(single[name] for single in singles)
            assert np.abs(len(mask) * batch[name] - summed).max() <= 1e-12 * scale, name

    def test_mask_shape_must_match_frames(self, tiny_model):
        with pytest.raises(DimensionError):
            tiny_model.forward(np.zeros((2, 4, 16)), np.ones((2, 3), dtype=bool))

    def test_sample_without_frames_rejected(self, tiny_model):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(InputError):
            tiny_model.forward(np.zeros((2, 2, 16)), mask)

    def test_conv_sample_below_receptive_field_rejected(self):
        model = EncoderModel.build(conv_config(), seed=5)
        mask = np.arange(8) < np.array([8, 3])[:, None]
        with pytest.raises(InputError):
            model.forward(np.zeros((2, 8, 3)), mask)


class TestSharedSequences:
    # lengths 12, 5, 4 and 3 reach the blocks as two attention sequences,
    # [12] and [5, 4, 3], so three samples sit side by side in one
    @staticmethod
    def shared_batch(frontend, tiny_model):
        if frontend == "identity":
            model, lengths = tiny_model, np.array([12, 5, 4, 3])
        else:  # two kernel-2 stride-2 layers: 4 input frames per output frame
            model, lengths = EncoderModel.build(conv_config(), seed=5), np.array([48, 20, 16, 12])
        rng = np.random.default_rng(10)
        features = rng.normal(size=(len(lengths), int(lengths.max()), model.config.input_dim))
        mask = np.arange(features.shape[1]) < lengths[:, None]
        out_lengths = [conv_output_length(int(n), model.config.conv_layers) for n in lengths]
        assert out_lengths == [12, 5, 4, 3]
        packed = ad.pack_sequences(np.arange(12) < np.array(out_lengths)[:, None])
        assert packed.bias.shape[0] == 2
        return model, features, mask

    @pytest.mark.parametrize("frontend", ["identity", "conv"])
    def test_each_sample_matches_its_run_alone(self, tiny_model, frontend):
        # logits, and the gradient of a loss on one sample's logits only
        model, features, mask = self.shared_batch(frontend, tiny_model)
        weights = np.random.default_rng(11).normal(size=(len(mask), N_CLASSES))
        trainable = [name for name, entry in model.store.items() if not entry.frozen]

        def grads(frames, pad_mask, w):
            model.store.zero_grads()
            tsum(mul(model.forward(frames, pad_mask), Tensor(w))).backward()
            return {name: model.store.grad(name).copy() for name in trainable}

        batched = model.logits(features, mask)
        for i, n in enumerate(mask.sum(axis=1)):
            alone = features[i:i + 1, :n]
            np.testing.assert_allclose(batched[i], model.logits(alone[0]), rtol=1e-13, atol=1e-13)
            only_i = np.zeros_like(weights)
            only_i[i] = weights[i]
            in_batch = grads(features, mask, only_i)
            single = grads(alone, np.ones((1, n), bool), weights[i:i + 1])
            scale = max(np.abs(g).max() for g in single.values())
            for name in trainable:
                assert np.abs(in_batch[name] - single[name]).max() <= 1e-12 * scale, (i, name)

    @pytest.mark.parametrize("frontend", ["identity", "conv"])
    def test_junk_in_a_neighbour_leaves_a_sample_bit_identical(self, tiny_model, frontend):
        model, features, mask = self.shared_batch(frontend, tiny_model)
        base = model.logits(features, mask)
        for junk in (0.0, 1e6, -3.5):
            other = features.copy()
            other[3][mask[3]] = junk  # the last sample shares a sequence with 1 and 2
            assert np.array_equal(model.logits(other, mask)[:3], base[:3])


class TestHeadReinit:
    def test_reinit_changes_head_only(self, tiny_model):
        model = tiny_model.clone()
        before = {name: e.tensor.data.copy() for name, e in model.store.items()}
        state_before = model.rng_state
        model.reinit_head()
        assert not np.array_equal(model.store.value("head.weight"), before["head.weight"])
        assert model.rng_state != state_before
        for name, old in before.items():
            if not name.startswith("head."):
                assert np.array_equal(model.store.value(name), old), name

    def test_reinit_gives_a_trainable_six_class_head(self, tiny_model):
        model = tiny_model.clone()
        model.store.freeze_where(lambda name: True)
        model.reinit_head()
        for name, shape in (("head.weight", (16, N_CLASSES)), ("head.bias", (N_CLASSES,))):
            assert not model.store[name].frozen
            assert np.array_equal(model.store.grad(name), np.zeros(shape))


class TestClone:
    def test_clone_is_independent(self, tiny_model, rng):
        clone = tiny_model.clone()
        frames = rng.normal(size=(4, 16))
        assert np.array_equal(clone.logits(frames), tiny_model.logits(frames))
        clone.store.value("head.bias")[...] = 7.0
        assert not np.array_equal(clone.logits(frames), tiny_model.logits(frames))

    def test_clone_preserves_flags_and_moments(self, tiny_model):
        model = tiny_model.clone()
        model.store.set_frozen("block.0.ln1.gain", True)
        model.store["head.bias"].m[...] = 0.25
        model.store["head.bias"].step = 12
        clone = model.clone()
        assert clone.store["block.0.ln1.gain"].frozen
        assert np.array_equal(clone.store["head.bias"].m, model.store["head.bias"].m)
        assert clone.store["head.bias"].step == 12

    def test_clone_across_a_freeze(self, tiny_model):
        # a frozen entry clones without moments, and thaws with zero ones
        model = tiny_model.clone()
        model.store["head.bias"].m[...] = 0.25
        model.store.set_frozen("head.bias", True)
        clone = model.clone()
        assert clone.store["head.bias"].m is None and clone.store["head.bias"].v is None
        clone.store.set_frozen("head.bias", False)
        assert np.array_equal(clone.store["head.bias"].m, np.zeros(N_CLASSES))
        assert np.array_equal(clone.store["head.bias"].v, np.zeros(N_CLASSES))
        assert model.store["head.bias"].m is None

    def test_unknown_block_id(self, tiny_model):
        with pytest.raises(StateError):
            tiny_model.block_info("99")

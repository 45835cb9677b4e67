"""Depth expansion: structure, exact preservation, freeze policies, the
skip of closed-gate copies and the arrays frozen copies share."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbekit import functional as F
from bbekit.checkpoint import save_checkpoint
from bbekit.errors import ConfigError, DimensionError, StateError
from bbekit.expansion import (
    FREEZE_POLICIES,
    PRESERVE_PROBES,
    ExpansionSpec,
    apply_freeze_policy,
    expand,
    preservation_probes,
    verify_preservation,
)
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel, conv_output_length
from bbekit.trainer import evaluate


class TestSpec:
    def test_defaults(self):
        spec = ExpansionSpec()
        assert spec.multiplier == 2
        assert spec.freeze_policy == "freeze-original"

    @pytest.mark.parametrize("kwargs", [
        {"multiplier": 1}, {"multiplier": 4}, {"multiplier": 0},
        {"freeze_policy": "freeze-copies"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExpansionSpec(**kwargs)

    def test_dict_roundtrip(self):
        # a run's summary.json echoes the spec as dataclasses.asdict gives it
        spec = ExpansionSpec(multiplier=3, freeze_policy="non-frozen")
        assert ExpansionSpec(**dataclasses.asdict(spec)) == spec


class TestStructure:
    def test_doubling_block_ids(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(multiplier=2))
        assert out.block_ids() == ["0", "0x1", "1", "1x1"]
        assert out.config.n_blocks == 4

    def test_tripling_block_ids(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(multiplier=3))
        assert out.block_ids() == ["0", "0x1", "0x2", "1", "1x1", "1x2"]
        assert out.config.n_blocks == 6

    def test_four_block_doubling(self):
        model = EncoderModel.build(EncoderConfig(n_blocks=4, d_model=8,
                                                 n_heads=2, d_ffn=16), seed=3)
        out = expand(model, ExpansionSpec(multiplier=2))
        assert len(out.block_index) == 8
        origin = {b.block_id: b.origin for b in out.block_index}
        assert [i for i in origin if origin[i] == "original"] == ["0", "1", "2", "3"]
        assert [i for i in origin if origin[i] == "expanded"] == ["0x1", "1x1", "2x1", "3x1"]

    def test_copy_metadata(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec())
        copy = out.block_info("1x1")
        assert copy.origin == "expanded"
        assert copy.source == "1"
        assert out.block_info("1").origin == "original"

    def test_copies_share_source_values(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(multiplier=3))
        for src in ("0", "1"):
            for k in (1, 2):
                src_p = out.block_params()[src]
                cp = out.block_params()[f"{src}x{k}"]
                assert set(cp) == set(src_p) | {"zll.weight", "zll.bias"}
                for suffix, tensor in src_p.items():
                    assert np.array_equal(cp[suffix].data, tensor.data), suffix
                    assert cp[suffix] is not tensor, suffix

    def test_copy_projection_starts_at_zero(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec())
        p = out.block_params()["0x1"]
        assert np.array_equal(p["zll.weight"].data, np.zeros((16, 16)))
        assert np.array_equal(p["zll.bias"].data, np.zeros(16))

    def test_original_blocks_have_no_projection(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec())
        assert "zll.weight" not in out.block_params()["0"]

    def test_param_count_growth(self, tiny_model):
        d = tiny_model.config.d_model
        out = expand(tiny_model, ExpansionSpec(multiplier=2))
        per_block = sum(t.size for t in tiny_model.block_params()["0"].values())
        per_copy = per_block + d * d + d
        assert out.store.n_params() == tiny_model.store.n_params() + 2 * per_copy

    def test_expansion_record(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(multiplier=2, freeze_policy="non-frozen"))
        assert out.expansion == {"multiplier": 2, "freeze_policy": "non-frozen",
                                 "source_blocks": ["0", "1"]}

    def test_source_model_untouched(self, tiny_model, rng):
        frames = rng.normal(size=(4, 16))
        before = tiny_model.logits(frames)
        names_before = tiny_model.store.names()
        expand(tiny_model, ExpansionSpec())
        assert tiny_model.store.names() == names_before
        assert tiny_model.expansion is None
        assert tiny_model.config.n_blocks == 2
        assert np.array_equal(tiny_model.logits(frames), before)

    def test_double_expansion_rejected(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec())
        with pytest.raises(StateError):
            expand(out, ExpansionSpec())


class TestPreservation:
    def test_exact_zero_on_random_probes(self, tiny_model, rng):
        out = expand(tiny_model, ExpansionSpec())
        probes = [rng.normal(size=(rng.integers(1, 9), 16)) for _ in range(10)]
        assert verify_preservation(tiny_model, out, probes) == 0.0

    def test_exact_zero_with_masks(self, tiny_model, rng):
        # masked probes of mixed lengths, padded into one batch; a conv
        # model's probes keep at least its receptive field of 7 frames
        for base in (tiny_model, conv_model()):
            out = expand(base, ExpansionSpec(multiplier=3))
            shortest, d = base.config.min_input_length, base.config.input_dim
            probes = []
            for _ in range(5):
                n = shortest + int(rng.integers(1, 7))
                mask = np.ones(n, dtype=bool)
                mask[int(rng.integers(shortest, n)):] = False
                probes.append((rng.normal(size=(n, d)), mask))
            assert len({len(frames) for frames, _ in probes}) > 1
            assert verify_preservation(base, out, probes) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), multiplier=st.sampled_from([2, 3]))
    def test_exact_zero_property(self, seed, multiplier):
        rng = np.random.default_rng(seed)
        base = EncoderModel.build(EncoderConfig(n_blocks=2, d_model=16,
                                                n_heads=2, d_ffn=32), seed=11)
        out = expand(base, ExpansionSpec(multiplier=multiplier))
        probes = [rng.normal(size=(int(rng.integers(1, 6)), 16)) * 10.0]
        assert verify_preservation(base, out, probes) == 0.0

    def test_perturbed_projection_breaks_preservation(self, tiny_model, rng):
        out = expand(tiny_model, ExpansionSpec())
        out.store.value("block.0x1.zll.weight")[0, 0] = 1e-3
        probes = [rng.normal(size=(4, 16)) for _ in range(4)]
        assert verify_preservation(tiny_model, out, probes) > 0.0

    def test_empty_probes_rejected(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec())
        with pytest.raises(ConfigError):
            verify_preservation(tiny_model, out, [])

    def test_unexpanded_second_model_rejected(self, tiny_model, rng):
        with pytest.raises(StateError):
            verify_preservation(tiny_model, tiny_model, [rng.normal(size=(2, 16))])

    @pytest.mark.parametrize("case", ["mixed widths", "mask too long", "mask too short",
                                      "ragged frames", "ragged mask", "text frames",
                                      "no pair"])
    def test_malformed_probe_is_dimension_error(self, tiny_model, rng, case):
        # each probe is checked before the probes are padded into one batch
        out = expand(tiny_model, ExpansionSpec())
        bad = {"mixed widths": rng.normal(size=(3, 8)),
               "mask too long": (rng.normal(size=(3, 16)), np.ones(5, dtype=bool)),
               "mask too short": (rng.normal(size=(5, 16)), np.ones(3, dtype=bool)),
               "ragged frames": [[0.0] * 16, [0.0] * 15],
               "ragged mask": (rng.normal(size=(2, 16)), [True, [True]]),
               "text frames": [["a"] * 16],
               "no pair": (rng.normal(size=(2, 16)),)}[case]
        with pytest.raises(DimensionError):
            verify_preservation(tiny_model, out, [rng.normal(size=(4, 16)), bad])

    def test_one_forward_per_model(self, tiny_model, monkeypatch, rng):
        out = expand(tiny_model, ExpansionSpec())
        calls = []
        frontend_rows = EncoderModel.frontend_rows

        def spy(self, frames, pad_mask):
            calls.append(np.shape(frames))
            return frontend_rows(self, frames, pad_mask)

        monkeypatch.setattr(EncoderModel, "frontend_rows", spy)
        probes = [rng.normal(size=(int(rng.integers(1, 9)), 16)) for _ in range(8)]
        assert verify_preservation(tiny_model, out, probes) == 0.0
        assert len(calls) == 2
        assert calls[0][0] == calls[1][0] == 8

    def test_unrelated_models_rejected(self, tiny_model, rng):
        other = EncoderModel.build(EncoderConfig(n_blocks=3, d_model=16,
                                                 n_heads=2, d_ffn=32), seed=8)
        out = expand(other, ExpansionSpec())
        with pytest.raises(StateError):
            verify_preservation(tiny_model, out, [rng.normal(size=(2, 16))])


def conv_model() -> EncoderModel:
    """Two stride-2 conv layers over 4-dim frames: a receptive field of 7."""
    layers = [ConvLayerSpec(16, 3, 2), ConvLayerSpec(16, 3, 2)]
    return EncoderModel.build(EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ffn=32,
                                            frontend="conv", conv_in_dim=4,
                                            conv_layers=layers), seed=2)


def copy_forwards(monkeypatch) -> list:
    """One entry per ``expanded_block_forward`` call from here on."""
    calls = []
    forward = F.expanded_block_forward

    def spy(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(F, "expanded_block_forward", spy)
    return calls


def ragged_batch(rng):
    """Three samples of 9, 6 and 2 frames, suffix-padded to [3, 9, 16]."""
    mask = np.arange(9) < np.array([9, 6, 2])[:, None]
    return rng.normal(size=(3, 9, 16)), mask


class TestClosedGateSkip:
    # a copy whose ZLL gate is frozen and all zero computes x + 0 = x, so
    # the forward skips it; the preservation check still runs it
    @pytest.mark.parametrize("multiplier", [2, 3])
    def test_head_only_runs_no_copy(self, tiny_model, make_corpus, monkeypatch, rng,
                                    multiplier):
        out = expand(tiny_model, ExpansionSpec(multiplier, "head-only"))
        frames, mask = ragged_batch(rng)
        calls = copy_forwards(monkeypatch)
        skipped = out.logits(frames, mask)
        evaluate(out, make_corpus("c0"), "test")
        assert not calls
        for name in out.store.names():
            if ".zll." in name:
                out.store.set_frozen(name, False)
        assert out.logits(frames, mask).tobytes() == skipped.tobytes()
        assert len(calls) == 2 * (multiplier - 1)

    def test_gate_written_in_place_is_not_skipped(self, tiny_model, monkeypatch, rng):
        out = expand(tiny_model, ExpansionSpec(2, "head-only"))
        frames, mask = ragged_batch(rng)
        before = out.logits(frames, mask)
        calls = copy_forwards(monkeypatch)
        out.store.value("block.0x1.zll.weight")[0, 0] = 1e-3
        assert out.store["block.0x1.zll.weight"].frozen
        after = out.logits(frames, mask)
        assert len(calls) == 1
        assert not np.array_equal(after, before)

    def test_trainable_gates_run_every_copy(self, tiny_model, monkeypatch, rng):
        out = expand(tiny_model, ExpansionSpec(3, "freeze-original"))
        calls = copy_forwards(monkeypatch)
        out.logits(*ragged_batch(rng))
        assert len(calls) == 4

    def test_preservation_runs_every_copy(self, tiny_model, monkeypatch, rng):
        out = expand(tiny_model, ExpansionSpec(3, "head-only"))
        probes = [rng.normal(size=(5, 16)) for _ in range(3)]
        calls = copy_forwards(monkeypatch)
        assert verify_preservation(tiny_model, out, probes) == 0.0
        assert len(calls) == 4  # one per copy: the probes run as one batch


def retained_bytes(make) -> int:
    """Bytes that ``make()`` leaves allocated, its result still held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()  # noqa: F841 (held while measured)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before


class TestSharedCopies:
    # only frozen entries share an array: under head-only each copy's block
    # values are its source block's arrays
    @pytest.mark.parametrize("multiplier", [2, 3])
    def test_head_only_copies_share_their_source_arrays(self, tiny_model, multiplier):
        out = expand(tiny_model, ExpansionSpec(multiplier, "head-only"))
        values = {name: entry.tensor.data for name, entry in out.store.items()}
        n_shared = 0
        for name, value in values.items():
            if not name.startswith("block."):
                continue
            _, block_id, suffix = name.split(".", 2)
            info = out.block_info(block_id)
            if suffix.startswith("zll."):
                assert not any(np.shares_memory(value, v)
                               for n, v in values.items() if n != name), name
            elif info.origin == "expanded":
                assert np.shares_memory(value, values[f"block.{info.source}.{suffix}"]), name
                n_shared += 1
        assert n_shared == 2 * (multiplier - 1) * len(tiny_model.block_params()["0"])

    def test_input_model_shares_nothing(self, tiny_model):
        before = {name: e.tensor.data.copy() for name, e in tiny_model.store.items()}
        out = expand(tiny_model, ExpansionSpec(3, "head-only"))
        for name, entry in tiny_model.store.items():
            assert np.array_equal(entry.tensor.data, before[name]), name
            for _, other in out.store.items():
                assert not np.shares_memory(entry.tensor.data, other.tensor.data), name

    @pytest.mark.parametrize("policy", ["freeze-original", "non-frozen"])
    def test_trainable_copies_own_their_arrays(self, tiny_model, policy):
        out = expand(tiny_model, ExpansionSpec(2, policy))
        values = [entry.tensor.data for _, entry in out.store.items()]
        for i, value in enumerate(values):
            assert not any(np.shares_memory(value, v) for v in values[i + 1:])

    def test_thawed_copy_leaves_its_source(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(2, "head-only"))
        name, source = "block.1x1.ffn.w1.weight", "block.1.ffn.w1.weight"
        before = out.store.value(source).copy()
        out.store.set_frozen(name, False)
        out.store.value(name)[...] = 3.0
        out.store.flat().value[...] = 5.0
        assert np.array_equal(out.store.value(source), before)
        assert np.all(out.store.value(name) == 5.0)

    def test_checkpoint_bytes_equal_the_clone(self, tiny_model, tmp_path):
        out = expand(tiny_model, ExpansionSpec(3, "head-only"))
        save_checkpoint(tmp_path / "shared.bbex", out)
        save_checkpoint(tmp_path / "clone.bbex", out.clone())
        assert (tmp_path / "shared.bbex").read_bytes() == (tmp_path / "clone.bbex").read_bytes()

    def test_head_only_copies_allocate_no_block_values(self):
        # measured against a clone, which holds the same frozen entries
        model = EncoderModel.build(EncoderConfig(), seed=5)
        apply_freeze_policy(model, "head-only")
        block_bytes = sum(t.data.nbytes for p in model.block_params().values()
                          for t in p.values())
        grown = retained_bytes(lambda: expand(model, ExpansionSpec(2, "head-only")))
        assert grown - retained_bytes(model.clone) < block_bytes / 2


def frozen_names(model):
    return {name for name, entry in model.store.items() if entry.frozen}


class TestFreezePolicies:
    def test_freeze_original(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(freeze_policy="freeze-original"))
        frozen = frozen_names(out)
        for name in out.store.names():
            block_like = name.startswith("block.")
            if block_like and "x" in name.split(".")[1]:
                assert name not in frozen, name  # copies train
            elif block_like:
                assert name in frozen, name  # originals do not
        assert "head.weight" not in frozen
        assert "head.bias" not in frozen

    def test_non_frozen(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(freeze_policy="non-frozen"))
        assert frozen_names(out) == set()

    def test_head_only(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(freeze_policy="head-only"))
        frozen = frozen_names(out)
        assert frozen == set(out.store.names()) - {"head.weight", "head.bias"}
        # frozen entries hold no gradient buffer
        assert all(out.store.grad(name) is None for name in frozen)

    def test_frontend_always_frozen(self):
        from test_model import conv_config

        model = EncoderModel.build(conv_config(), seed=9)
        out = expand(model, ExpansionSpec(freeze_policy="non-frozen"))
        assert "frontend.conv0.weight" in frozen_names(out)

    def test_policy_switch_updates_record(self, tiny_model):
        out = expand(tiny_model, ExpansionSpec(freeze_policy="freeze-original"))
        apply_freeze_policy(out, "head-only")
        assert out.expansion["freeze_policy"] == "head-only"

    def test_unknown_policy_rejected(self, tiny_model):
        with pytest.raises(ConfigError):
            apply_freeze_policy(tiny_model, "freeze-everything")

    def test_gradients_respect_freezing(self, tiny_model, rng):
        from bbekit.functional import softmax_cross_entropy

        out = expand(tiny_model, ExpansionSpec(freeze_policy="freeze-original"))
        loss = softmax_cross_entropy(out.forward(rng.normal(size=(1, 3, 16))), [2])
        loss.backward()
        for name in out.store.names():
            if name.startswith("block.") and "x" not in name.split(".")[1]:
                assert out.store.grad(name) is None, name
        # the zero-initialized projections are exactly where gradient lands
        assert np.abs(out.store.grad("block.0x1.zll.weight")).max() > 0.0
        assert np.abs(out.store.grad("head.weight")).max() > 0.0
        out.store.zero_grads()


class TestProbes:
    def test_seeded(self, tiny_model):
        a, b = preservation_probes(tiny_model, 3), preservation_probes(tiny_model, 3)
        assert len(a) == PRESERVE_PROBES
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], preservation_probes(tiny_model, 4)[0])

    def test_conv_probes_reach_the_receptive_field(self):
        model = conv_model()
        layers = model.config.conv_layers
        probes = [p for seed in range(7) for p in preservation_probes(model, seed)]
        lengths = [p.shape[0] for p in probes]
        assert model.config.min_input_length == 7
        assert min(lengths) >= 7
        assert all(conv_output_length(n, layers) >= 1 for n in lengths)
        assert all(p.shape[1] == 4 for p in probes)
        expanded = expand(model, ExpansionSpec())
        assert verify_preservation(model, expanded, probes) == 0.0

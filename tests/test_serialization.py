"""Binary round-trips for feature files and model checkpoints.

The bar is bit-exactness: a loaded model must be indistinguishable from the
saved one, down to optimizer moments, freeze flags, and the RNG counter.
"""

import struct

import numpy as np
import pytest

from bbekit.checkpoint import load_checkpoint, save_checkpoint
from bbekit.errors import FormatError, InputError
from bbekit.expansion import ExpansionSpec, expand
from bbekit.featfile import read_features, write_features
from bbekit.model import EncoderConfig, EncoderModel


class TestFeatureFiles:
    def test_roundtrip_exact(self, tmp_path, rng):
        frames = rng.normal(size=(13, 5)).astype(np.float32)
        path = tmp_path / "x.feat"
        write_features(path, frames)
        back = read_features(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, frames.astype(np.float64))

    def test_single_frame(self, tmp_path):
        path = tmp_path / "one.feat"
        write_features(path, np.array([[1.5, -2.5]]))
        assert np.array_equal(read_features(path), [[1.5, -2.5]])

    def test_rejects_bad_shapes(self, tmp_path):
        with pytest.raises(InputError):
            write_features(tmp_path / "bad.feat", np.zeros(4))
        with pytest.raises(InputError):
            write_features(tmp_path / "bad.feat", np.zeros((0, 4)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.feat"
        write_features(path, np.ones((2, 2)))
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"FEAT\x01")
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.feat"
        write_features(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            read_features(path)

    def test_trailing_junk(self, tmp_path):
        path = tmp_path / "x.feat"
        write_features(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_features(path)

    def test_zero_dims_in_header(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(struct.pack("<4sII", b"FEAT", 0, 4))
        with pytest.raises(FormatError):
            read_features(path)

    def test_huge_dims_in_header(self, tmp_path):
        # 4 * 0xFFFFFFFF**2 bytes cannot even be requested from a read
        path = tmp_path / "x.feat"
        path.write_bytes(struct.pack("<4sII", b"FEAT", 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(FormatError):
            read_features(path)


def assert_models_equal(a: EncoderModel, b: EncoderModel) -> None:
    assert a.config == b.config
    assert a.block_index == b.block_index
    assert a.rng_state == b.rng_state
    assert a.expansion == b.expansion
    assert a.store.names() == b.store.names()
    for name, ea in a.store.items():
        eb = b.store[name]
        assert np.array_equal(ea.tensor.data, eb.tensor.data), name
        assert np.array_equal(ea.m, eb.m), name
        assert np.array_equal(ea.v, eb.v), name
        assert ea.frozen == eb.frozen, name
        assert ea.step == eb.step, name


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path, tiny_model):
        model = tiny_model.clone()
        model.store["head.bias"].m[...] = 0.125
        model.store["head.bias"].v[...] = 0.5
        model.store["head.bias"].step = 42
        model.store.set_frozen("block.0.ln1.gain", True)
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        assert_models_equal(load_checkpoint(path), model)

    def test_forward_identical_after_roundtrip(self, tmp_path, tiny_model, rng):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        loaded = load_checkpoint(path)
        frames = rng.normal(size=(6, 16))
        assert np.array_equal(loaded.logits(frames), tiny_model.logits(frames))

    def test_expanded_model_roundtrip(self, tmp_path, tiny_model, rng):
        expanded = expand(tiny_model, ExpansionSpec(multiplier=2))
        path = tmp_path / "e.bbex"
        save_checkpoint(path, expanded)
        loaded = load_checkpoint(path)
        assert_models_equal(loaded, expanded)
        assert loaded.expansion is not None
        assert loaded.expansion["multiplier"] == 2
        origins = [b.origin for b in loaded.block_index]
        assert origins == ["original", "expanded"] * 2
        frames = rng.normal(size=(4, 16))
        assert np.array_equal(loaded.logits(frames), expanded.logits(frames))

    def test_conv_model_roundtrip(self, tmp_path):
        from test_model import conv_config

        model = EncoderModel.build(conv_config(), seed=13)
        path = tmp_path / "c.bbex"
        save_checkpoint(path, model)
        assert_models_equal(load_checkpoint(path), model)

    def test_bad_magic(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = bytearray(path.read_bytes())
        data[12] = ord("{") ^ 0x01  # first header byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [10, 100, -9, -1])
    def test_truncation_anywhere(self, tmp_path, tiny_model, cut):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = path.read_bytes()
        path.write_bytes(data[:cut] if cut > 0 else data[:len(data) + cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_junk(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_missing_parameter_detected(self, tmp_path, tiny_model):
        # drop one block parameter before saving; the structural check on
        # load must notice the hole
        model = tiny_model.clone()
        model.store.remove("block.1.ffn.w2.bias")
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_rng_state_preserved(self, tmp_path, tiny_model):
        model = tiny_model.clone()
        model.reinit_head()  # advance the RNG away from the seed
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        assert load_checkpoint(path).rng_state == model.rng_state

"""Binary round-trips for feature files and model checkpoints.

The bar is bit-exactness: a loaded model must be indistinguishable from the
saved one, down to optimizer moments, freeze flags, and the RNG counter.
"""

import json
import struct

import numpy as np
import pytest

from bbekit import checkpoint
from bbekit.checkpoint import load_checkpoint, save_checkpoint
from bbekit.errors import FormatError, InputError
from bbekit.expansion import ExpansionSpec, expand
from bbekit.featfile import read_features, write_features
from bbekit.model import EncoderConfig, EncoderModel
from bbekit.params import ParameterStore


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


def header_span(data: bytes) -> tuple[dict, int]:
    """A checkpoint's JSON header and the offset of the first parameter."""
    (json_len,) = struct.unpack("<I", data[8:12])
    return json.loads(data[12:12 + json_len]), 12 + json_len


def rewrite_header(path, edit) -> None:
    """Apply ``edit`` to the checkpoint's JSON header in place."""
    data = path.read_bytes()
    header, start = header_span(data)
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[start:])


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
        store = ParameterStore()
        for name, entry in model.store.items():
            if name != "block.1.ffn.w2.bias":
                store.add(name, entry.tensor.data)
        model.store = store
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_extra_parameter_detected(self, tmp_path, tiny_model):
        model = tiny_model.clone()
        model.store.add("block.0.extra.weight", np.zeros((2, 2)))
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_shape_disagreeing_with_config_detected(self, tmp_path):
        # the header claims 16-wide FFNs over stored 8-wide tensors
        model = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=8, n_heads=2,
                                                 d_ffn=8), seed=3)
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(d_ffn=16))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_duplicate_block_id_detected(self, tmp_path):
        # two index entries naming the one stored block would run it twice
        model = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=8, n_heads=2,
                                                 d_ffn=8), seed=3)
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)

        def duplicate(header):
            header["config"]["n_blocks"] = 2
            header["block_index"] = header["block_index"] * 2

        rewrite_header(path, duplicate)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_duplicate_parameter_name_detected(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = path.read_bytes()
        # the last entry is head.bias, (6,): name, ndim, dim, values,
        # frozen flag, both moments, step; the file ends with the RNG state
        size = 2 + len(b"head.bias") + 1 + 4 + 3 * 8 * 6 + 1 + 8
        last = data[-8 - size:-8]
        assert last[2:2 + len(b"head.bias")] == b"head.bias"
        path.write_bytes(data[:-8] + last + data[-8:])
        rewrite_header(path, lambda h: h.update(n_params=h["n_params"] + 1))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("conv", [False, True])
    def test_huge_dims_rejected_before_reading(self, tmp_path, tiny_model, monkeypatch, conv):
        # the first parameter is 1-d (ln1.gain) or 2-d (the conv weight);
        # its dims all become 0xFFFFFFFF, so 3 * 8 * prod(dims) bytes
        # cannot be in the file, and no read may even be requested for them
        from test_model import conv_config

        model = EncoderModel.build(conv_config(), seed=13) if conv else tiny_model
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        data = bytearray(path.read_bytes())
        _, start = header_span(bytes(data))
        (name_len,) = struct.unpack("<H", data[start:start + 2])
        ndim = data[start + 2 + name_len]
        dims = start + 3 + name_len
        data[dims:dims + 4 * ndim] = b"\xff" * (4 * ndim)
        path.write_bytes(bytes(data))

        real = checkpoint._read_exact

        def bounded(fh, n, what):
            assert 0 <= n <= len(data), f"{what}: read of {n} bytes requested"
            return real(fh, n, what)

        monkeypatch.setattr(checkpoint, "_read_exact", bounded)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_with_pooling_still_loads(self, tmp_path, tiny_model, rng):
        # headers written before the pooling field was dropped carry
        # "pooling": "mean"; such a file loads and evaluates bit-identically
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        rewrite_header(path, lambda h: h["config"].update(pooling="mean"))
        loaded = load_checkpoint(path)
        assert_models_equal(loaded, tiny_model)
        frames = rng.normal(size=(5, 16))
        assert np.array_equal(loaded.logits(frames), tiny_model.logits(frames))

    def test_header_with_class_count_and_trainable_still_loads(self, tmp_path, tiny_model, rng):
        # older headers carry "n_classes": 6 in the config and a "trainable"
        # flag per block; both are ignored on load
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)

        def add_old_fields(header):
            header["config"]["n_classes"] = 6
            for block in header["block_index"]:
                block["trainable"] = True

        rewrite_header(path, add_old_fields)
        loaded = load_checkpoint(path)
        assert_models_equal(loaded, tiny_model)
        frames = rng.normal(size=(5, 16))
        assert np.array_equal(loaded.logits(frames), tiny_model.logits(frames))

    def test_four_wide_head_rejected(self, tmp_path, tiny_model):
        # the label space is six classes; a stored 4-class head is corrupt
        # even when its header claims "n_classes": 4
        model = tiny_model.clone()
        model.store.replace("head.weight", np.zeros((16, 4)))
        model.store.replace("head.bias", np.zeros(4))
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["config"].update(n_classes=4))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_rng_state_preserved(self, tmp_path, tiny_model):
        model = tiny_model.clone()
        model.reinit_head()  # advance the RNG away from the seed
        path = tmp_path / "m.bbex"
        save_checkpoint(path, model)
        assert load_checkpoint(path).rng_state == model.rng_state

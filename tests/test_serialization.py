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
from bbekit.errors import BbekitError, FormatError, InputError
from bbekit.expansion import ExpansionSpec, expand
from bbekit.featfile import read_features, write_features
from bbekit.model import BlockInfo, ConvLayerSpec, EncoderConfig, EncoderModel
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

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39, -1e308])
    def test_rejects_frames_not_finite_as_float32(self, tmp_path, value):
        frames = np.ones((3, 2))
        frames[1, 0] = value
        path = tmp_path / "x.feat"
        with pytest.raises(InputError, match="non-finite"):
            write_features(path, frames)
        assert not path.exists()

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

    def test_header_nested_too_deep(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = path.read_bytes()
        _, start = header_span(data)
        blob = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[start:])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert exc.value.exit_code == 3

    def test_header_of_the_wrong_type(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = path.read_bytes()
        _, start = header_span(data)
        path.write_bytes(data[:8] + struct.pack("<I", 3) + b"[1]" + data[start:])
        with pytest.raises(FormatError, match="JSON object"):
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

        real = checkpoint.read_exact

        def bounded(fh, n, what):
            assert 0 <= n <= len(data), f"{what}: read of {n} bytes requested"
            return real(fh, n, what)

        monkeypatch.setattr(checkpoint, "read_exact", bounded)
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
        # even when its header claims "n_classes": 4; replace keeps a head's
        # shape, so the model's store is built by hand
        model = tiny_model.clone()
        store = ParameterStore()
        heads = {"head.weight": np.zeros((16, 4)), "head.bias": np.zeros(4)}
        for name, entry in model.store.items():
            store.add(name, heads.get(name, entry.tensor.data), frozen=entry.frozen)
        model.store = store
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


def conv_x2_checkpoint(path):
    """A small 1-block conv model expanded x2 (freeze-original), saved to
    ``path``."""
    config = EncoderConfig(n_blocks=1, d_model=4, n_heads=2, d_ffn=4, frontend="conv",
                           conv_layers=[ConvLayerSpec(4, 2, 2)], conv_in_dim=3)
    model = expand(EncoderModel.build(config, seed=5), ExpansionSpec(2))
    save_checkpoint(path, model)
    return model


def rename_block(model: EncoderModel, old: str, new: str) -> EncoderModel:
    """``model`` with block ``old`` renamed ``new`` in its block index (ids
    and sources) and in its parameter names, as a file edited by hand in
    both places would hold it."""
    store = ParameterStore()
    for name, entry in model.store.items():
        if name.startswith(f"block.{old}."):
            name = f"block.{new}." + name[len(f"block.{old}."):]
        store.add(name, entry.tensor.data, frozen=entry.frozen, m=entry.m, v=entry.v,
                  step=entry.step)
    index = [BlockInfo(new if b.block_id == old else b.block_id, b.origin,
                       new if b.source == old else b.source) for b in model.block_index]
    return EncoderModel(model.config, store, index, model.rng_state)


def parameter_offsets(data: bytes) -> list[int]:
    """Offsets of each parameter's name length, name, ndim, dims, frozen
    flag and step fields, and of the trailing RNG state."""
    _, pos = header_span(data)
    offsets = []
    while pos < len(data) - 8:
        (name_len,) = struct.unpack("<H", data[pos:pos + 2])
        ndim = data[pos + 2 + name_len]
        dims = struct.unpack(f"<{ndim}I", data[pos + 3 + name_len:pos + 3 + name_len + 4 * ndim])
        offsets += range(pos, pos + 3 + name_len + 4 * ndim)
        pos += 3 + name_len + 4 * ndim + 8 * int(np.prod(dims))
        offsets.append(pos)  # frozen flag
        pos += 1 + 16 * int(np.prod(dims))
        offsets += range(pos, pos + 8)  # step
        pos += 8
    return offsets + list(range(pos, len(data)))


def moment_spans(data: bytes) -> dict[str, tuple[bool, int, int]]:
    """Per parameter name: its frozen flag and the start and end offsets of
    its two stored AdamW moments."""
    _, pos = header_span(data)
    spans = {}
    while pos < len(data) - 8:
        (name_len,) = struct.unpack("<H", data[pos:pos + 2])
        name = data[pos + 2:pos + 2 + name_len].decode("utf-8")
        ndim = data[pos + 2 + name_len]
        dims = struct.unpack(f"<{ndim}I", data[pos + 3 + name_len:pos + 3 + name_len + 4 * ndim])
        pos += 3 + name_len + 4 * ndim + 8 * int(np.prod(dims))
        start = pos + 1
        pos = start + 16 * int(np.prod(dims))
        spans[name] = (bool(data[start - 1]), start, pos)
        pos += 8
    return spans


def header_paths(node, path=()):
    """Every value's key path in a JSON header, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from header_paths(value, path + (key,))


def load_or_bbekit_error(path, probe=None) -> None:
    """Load ``path``; if it loads, name its variant and evaluate it on
    ``probe``.  Any failure must be a BbekitError."""
    from bbekit.cli import _variant_name

    try:
        model = load_checkpoint(path)
        _variant_name(model)
        if probe is not None:
            model.logits(probe)
    except BbekitError:
        pass


class TestCorruptCheckpoints:
    def test_structural_sweep(self, tmp_path):
        # truncation and 0x00/0xFF at every structural offset, and every
        # header value replaced by each JSON kind.  A file that still loads
        # is evaluated too, unless only its parameter fields changed.
        good = tmp_path / "good.bbex"
        conv_x2_checkpoint(good)
        data = good.read_bytes()
        probe = np.random.default_rng(0).normal(size=(9, 3))
        _, header_end = header_span(data)
        offsets = list(range(header_end)) + parameter_offsets(data)
        assert len(offsets) > 1000
        bad = tmp_path / "bad.bbex"
        for off in offsets:
            bad.write_bytes(data[:off])
            with pytest.raises(FormatError):
                load_checkpoint(bad)
            for byte in (0x00, 0xFF):
                flipped = bytearray(data)
                flipped[off] = byte
                bad.write_bytes(bytes(flipped))
                load_or_bbekit_error(bad, probe if off < header_end else None)
        header, _ = header_span(data)
        for key_path in header_paths(header):
            for junk in (None, "x", [0], {"k": 0}, 2**40):
                def replace(h):
                    node = h
                    for key in key_path[:-1]:
                        node = node[key]
                    node[key_path[-1]] = junk

                bad.write_bytes(data)
                rewrite_header(bad, replace)
                load_or_bbekit_error(bad, probe)
        # a block id renamed consistently in the header and the parameter
        # names, to one a name's dots cannot carry
        model = load_checkpoint(good)
        for block_id in model.block_ids():
            for renamed in (f"{block_id}.x", f".{block_id}", "."):
                save_checkpoint(bad, rename_block(model, block_id, renamed))
                with pytest.raises(FormatError, match="without a '.'"):
                    load_checkpoint(bad)

    def test_originals_with_unequal_copy_counts_rejected(self, tmp_path, tiny_model):
        # copy 1x1 claims block 0 as its source: block 0 has two copies, block 1 none
        path = tmp_path / "m.bbex"
        save_checkpoint(path, expand(tiny_model, ExpansionSpec(2)))
        rewrite_header(path, lambda h: h["block_index"][3].update(source="0"))
        with pytest.raises(FormatError, match="block index"):
            load_checkpoint(path)

    def test_old_expansion_key_is_ignored(self, tmp_path):
        # files written before the record was derived carry it in the
        # header; the block index and freeze flags win over a stale one
        path = tmp_path / "m.bbex"
        model = conv_x2_checkpoint(path)
        stale = {"multiplier": 2, "freeze_policy": "head-only", "source_blocks": ["0"]}
        rewrite_header(path, lambda h: h.update(expansion=stale))
        loaded = load_checkpoint(path)
        assert_models_equal(loaded, model)
        assert loaded.expansion == {"multiplier": 2, "source_blocks": ["0"],
                                    "freeze_policy": "freeze-original"}

    def test_block_count_must_match_the_index(self, tmp_path, tiny_model):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        rewrite_header(path, lambda h: h["config"].update(n_blocks=7))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("block_id", [["0"], {"id": "0"}, 0])
    def test_block_id_must_be_a_string(self, tmp_path, tiny_model, block_id):
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        rewrite_header(path, lambda h: h["block_index"][0].update(id=block_id))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("conv_in_dim", [None, 0])
    def test_conv_in_dim_rejected(self, tmp_path, conv_in_dim):
        path = tmp_path / "m.bbex"
        conv_x2_checkpoint(path)
        rewrite_header(path, lambda h: h["config"].update(conv_in_dim=conv_in_dim))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [[1] * 65, [0, 0xFFFFFFFF, 0xFFFFFFFF]])
    def test_odd_ndim_and_dims_rejected(self, tmp_path, tiny_model, dims):
        # the first parameter's shape is rewritten in place: 65 dims of 1
        # (more than numpy allows), or a zero dim beside huge ones
        path = tmp_path / "m.bbex"
        save_checkpoint(path, tiny_model)
        data = path.read_bytes()
        _, start = header_span(data)
        (name_len,) = struct.unpack("<H", data[start:start + 2])
        ndim_at = start + 2 + name_len
        shape_end = ndim_at + 1 + 4 * data[ndim_at]
        path.write_bytes(data[:ndim_at] + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
                         + data[shape_end:])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_frozen_entries_written_with_zero_moments(self, tmp_path):
        path = tmp_path / "m.bbex"
        model = conv_x2_checkpoint(path)
        data = path.read_bytes()
        spans = moment_spans(data)
        assert list(spans) == model.store.names()
        frozen = [name for name, (flag, _, _) in spans.items() if flag]
        assert frozen == [n for n, e in model.store.items() if e.frozen] and frozen
        for name in frozen:
            _, start, end = spans[name]
            assert data[start:end] == bytes(end - start), name
            assert load_checkpoint(path).store[name].m is None, name

    def test_file_with_frozen_moments_still_loads(self, tmp_path):
        # older files stored the moments a frozen entry carried; a load
        # drops them, evaluates the same, and writes zeros back
        path = tmp_path / "m.bbex"
        model = conv_x2_checkpoint(path)
        clean = path.read_bytes()
        data = bytearray(clean)
        for flag, start, end in moment_spans(clean).values():
            if flag:
                data[start:end] = np.full((end - start) // 8, 0.375, dtype="<f8").tobytes()
        old = tmp_path / "old.bbex"
        old.write_bytes(bytes(data))
        loaded = load_checkpoint(old)
        for name, entry in loaded.store.items():
            if entry.frozen:
                assert entry.m is None and entry.v is None, name
        probe = np.random.default_rng(3).normal(size=(2, 20, 3))
        assert np.array_equal(loaded.logits(probe), model.logits(probe))
        save_checkpoint(tmp_path / "again.bbex", loaded)
        assert (tmp_path / "again.bbex").read_bytes() == clean

    @pytest.mark.parametrize("field, bad", [
        ("value", np.nan), ("value", np.inf), ("value", -np.inf),
        ("m", np.nan), ("v", np.nan), ("v", -1.0),
    ])
    def test_state_no_training_run_writes_rejected(self, tmp_path, field, bad):
        # each entry in turn, frozen ones included, gets one bad number
        path = tmp_path / "m.bbex"
        conv_x2_checkpoint(path)
        clean = path.read_bytes()
        for name, (_, start, end) in moment_spans(clean).items():
            count = (end - start) // 16
            at = {"value": start - 1 - 8 * count, "m": start, "v": start + 8 * count}[field]
            data = bytearray(clean)
            data[at:at + 8] = struct.pack("<d", bad)
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError) as exc:
                load_checkpoint(path)
            assert name in str(exc.value)

    def test_thawed_file_still_loads(self, tmp_path):
        # freeze flags that differ from the record's policy are the
        # program's own doing (set_frozen), so the file stays loadable
        path = tmp_path / "m.bbex"
        model = conv_x2_checkpoint(path)
        model.store.set_frozen("block.0.ffn.w1.weight", False)
        save_checkpoint(path, model)
        assert not load_checkpoint(path).store["block.0.ffn.w1.weight"].frozen

    def test_feature_file_sweep(self, tmp_path):
        good = tmp_path / "good.feat"
        write_features(good, np.arange(12.0).reshape(4, 3))
        data = good.read_bytes()
        bad = tmp_path / "bad.feat"
        for off in range(len(data)):
            bad.write_bytes(data[:off])
            with pytest.raises(FormatError):
                read_features(bad)
        for off in range(12):  # magic, frame count, dim
            for byte in (0x00, 0xFF):
                flipped = bytearray(data)
                flipped[off] = byte
                bad.write_bytes(bytes(flipped))
                try:  # a zero byte where the header holds one already is valid
                    read_features(bad)
                except BbekitError:
                    pass


@pytest.mark.parametrize("case", ["missing", "directory", "NUL byte"])
@pytest.mark.parametrize("read", [read_features, load_checkpoint])
def test_path_that_cannot_be_opened_is_format_error(tmp_path, read, case):
    path = {"missing": tmp_path / "none", "directory": tmp_path,
            "NUL byte": tmp_path / "a\0b"}[case]
    with pytest.raises(FormatError, match="cannot read"):
        read(path)

"""Model checkpoints: full float64 state with optimizer moments and RNG.

Layout (all little-endian):
  magic "BBEX" | u32 version | u32 json_len | UTF-8 JSON header
  per parameter: u16 name_len | name | u8 ndim | u32 dims... |
                 f64 values | u8 frozen | f64 m | f64 v | u64 step
  trailing u64 model RNG state

A frozen parameter keeps no AdamW moments: its m and v are written as
zeros, and what a file stores for them is dropped on load.  A load
rejects any entry's non-finite value, NaN moment or negative second
moment.

The JSON header carries the model config, the ordered block index, and
the parameter count for a cheap integrity check.  An expansion needs no
record of its own: the block index and the frozen flags are the whole of
it (``EncoderModel.expansion``), and the ``expansion`` header key that
earlier files carry is ignored.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, open_input, parse_json, read_exact
from .model import BlockInfo, EncoderConfig, EncoderModel, param_layout
from .params import ParameterStore

MAGIC = b"BBEX"
VERSION = 1
# model config keys that earlier headers carry and no field reads any more
OLD_CONFIG_KEYS = ("pooling", "n_classes")


def save_checkpoint(path: str | Path, model: EncoderModel) -> None:
    header = {
        "config": model.config.to_dict(),
        "block_index": [b.to_dict() for b in model.block_index],
        "n_params": len(model.store),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for name, entry in model.store.items():
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_bytes)))
            fh.write(name_bytes)
            value = np.ascontiguousarray(entry.tensor.data, dtype="<f8")
            fh.write(struct.pack("<B", value.ndim))
            fh.write(struct.pack(f"<{value.ndim}I", *value.shape))
            fh.write(value.tobytes())
            fh.write(struct.pack("<B", 1 if entry.frozen else 0))
            if entry.frozen:
                fh.write(bytes(2 * value.nbytes))
            else:
                fh.write(np.ascontiguousarray(entry.m, dtype="<f8").tobytes())
                fh.write(np.ascontiguousarray(entry.v, dtype="<f8").tobytes())
            fh.write(struct.pack("<Q", entry.step))
        fh.write(struct.pack("<Q", model.rng_state))


def load_checkpoint(path: str | Path) -> EncoderModel:
    with open_input(path, FormatError, "checkpoint") as fh:
        size = os.fstat(fh.fileno()).st_size
        if read_exact(fh, 4, "magic") != MAGIC:
            raise FormatError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", read_exact(fh, 4, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (json_len,) = struct.unpack("<I", read_exact(fh, 4, "header length"))
        header = parse_json(read_exact(fh, json_len, "header"), FormatError,
                            f"{path}: header", dict)
        try:
            config = EncoderConfig.from_dict(
                {k: v for k, v in dict(header["config"]).items() if k not in OLD_CONFIG_KEYS})
            block_index = [BlockInfo.from_dict(b) for b in header["block_index"]]
            n_params = int(header["n_params"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: incomplete header ({exc})") from exc
        except ConfigError as exc:
            raise FormatError(f"{path}: invalid model config in header ({exc})") from exc
        _check_blocks(path, config, block_index)
        layout = param_layout(config, block_index)
        if n_params != len(layout):
            raise FormatError(f"{path}: {n_params} parameters, its config lays out {len(layout)}")

        store = ParameterStore()
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, "name length"))
            try:
                name = read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: parameter name is not UTF-8 ({exc})") from exc
            (ndim,) = struct.unpack("<B", read_exact(fh, 1, f"{name} ndim"))
            shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, f"{name} shape"))
            if layout.get(name) != shape:
                raise FormatError(f"{path}: {name} {shape} is not in the header's layout")
            count = math.prod(shape)
            # values and both moments, checked before anything is allocated
            if 3 * 8 * count > size - fh.tell():
                raise FormatError(f"{path}: {name} declares shape {shape}, "
                                  "more than the file holds")
            value = np.frombuffer(
                read_exact(fh, 8 * count, f"{name} values"), dtype="<f8").reshape(shape)
            (frozen,) = struct.unpack("<B", read_exact(fh, 1, f"{name} frozen flag"))
            m = np.frombuffer(
                read_exact(fh, 8 * count, f"{name} first moment"), dtype="<f8").reshape(shape)
            v = np.frombuffer(
                read_exact(fh, 8 * count, f"{name} second moment"), dtype="<f8").reshape(shape)
            # no training run writes these; an infinite moment, which AdamW can reach, loads
            if not (np.isfinite(value).all() and (v >= 0.0).all()) or np.isnan(m).any():
                raise FormatError(f"{path}: {name} holds state no training run writes")
            (step,) = struct.unpack("<Q", read_exact(fh, 8, f"{name} step"))
            if step >= 1 << 63:
                raise FormatError(f"{path}: {name} step counter {step} out of range")
            if name in store:
                raise FormatError(f"{path}: parameter {name} stored twice")
            store.add(name, value.copy(), frozen=bool(frozen), m=m, v=v, step=step)
        (rng_state,) = struct.unpack("<Q", read_exact(fh, 8, "rng state"))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after checkpoint payload")

    # each name is in the layout, none twice, and the counts agree: store == layout
    return EncoderModel(config, store, block_index, rng_state)


def _check_blocks(path, config, block_index: list[BlockInfo]) -> None:
    """``config.n_blocks`` distinct string ids without a ".", each an
    original without a source or a copy of an original, and every original
    with as many copies as the others, as ``expand`` leaves them."""
    ids = [b.block_id for b in block_index]
    # a parameter name is "block.<id>.<suffix>", read back by its first two dots
    if not all(isinstance(i, str) and "." not in i for i in ids):
        raise FormatError(f"{path}: block ids {ids} must be strings without a '.'")
    originals = [b.block_id for b in block_index if b.origin == "original" and b.source is None]
    sources = [b.source for b in block_index if b.origin == "expanded"]
    if (len(set(ids)) != len(ids)
            or len(ids) != config.n_blocks or len(originals) + len(sources) != len(ids)
            or not all(s in originals for s in sources)
            or len({sources.count(o) for o in originals}) > 1):
        raise FormatError(f"{path}: block index {ids} disagrees with itself or the config")

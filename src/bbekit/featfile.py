"""Frame-feature container: "FEAT" magic, u32 frame count, u32 dim, f32 data.

All integers little-endian; payload is row-major float32.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InputError, open_input, read_exact

MAGIC = b"FEAT"
_HEADER = struct.Struct("<4sII")
MAX_FRAMES = 0xFFFFFFFF  # the header's u32 frame count


def float32_frames(path: str | Path, frames: np.ndarray) -> np.ndarray:
    """``frames`` as the float32 array a FEAT file at ``path`` would hold.
    An array that is not [n_frames, dim], or a frame that is not finite as
    float32 (an inf or NaN, or a value past float32's range), is an
    ``InputError``."""
    with np.errstate(over="ignore"):  # a value past float32's range casts to inf
        frames = np.asarray(frames, dtype=np.float32)
    if frames.ndim != 2:
        raise InputError(f"{path}: expected [n_frames, dim] array, got shape {frames.shape}")
    if frames.shape[0] < 1 or frames.shape[1] < 1:
        raise InputError(f"{path}: empty feature array {frames.shape}")
    if not np.isfinite(frames).all():
        raise InputError(f"{path}: non-finite frame values (as float32)")
    return frames


def write_features(path: str | Path, frames: np.ndarray) -> None:
    """Write [n_frames, dim] frames as float32; frames ``float32_frames``
    rejects are not written."""
    frames = float32_frames(path, frames)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, frames.shape[0], frames.shape[1]))
        fh.write(np.ascontiguousarray(frames).tobytes())


def read_features(path: str | Path) -> np.ndarray:
    with open_input(path, FormatError, "feature file") as fh:
        magic, n_frames, dim = _HEADER.unpack(read_exact(fh, _HEADER.size, "header"))
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if n_frames < 1 or dim < 1:
            raise FormatError(f"{path}: invalid dimensions {n_frames}x{dim}")
        # checked before reading, so a hostile header cannot request a
        # payload larger than the file
        n_bytes = 4 * n_frames * dim
        if os.fstat(fh.fileno()).st_size - _HEADER.size != n_bytes:
            raise FormatError(f"{path}: payload size mismatch for {n_frames}x{dim}")
        payload = read_exact(fh, n_bytes, "payload")
    return np.frombuffer(payload, dtype="<f4").reshape(n_frames, dim).astype(np.float64)

"""Encoder model: feature frontend, block stack, pooling, classifier head.

The forward pass runs on batches of [B, T, d_in] frames with a [B, T]
padding mask; a single [T, d_in] sequence is a batch of one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import functional as F
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, InputError, StateError
from .params import ParameterStore
from .rngutil import generator, splitmix64, truncated_normal

INIT_STD = 0.02


@dataclass(frozen=True)
class ConvLayerSpec:
    channels: int
    kernel: int
    stride: int


@dataclass
class EncoderConfig:
    n_blocks: int = 4
    d_model: int = 32
    n_heads: int = 4
    d_ffn: int = 64
    frontend: str = "identity"  # "identity" | "conv"
    conv_layers: list[ConvLayerSpec] = field(default_factory=list)
    conv_in_dim: int = 1
    n_classes: int = 6
    pooling: str = "mean"

    @property
    def input_dim(self) -> int:
        """Width of the frames the model takes: d_model for the identity
        frontend, conv_in_dim for the conv frontend."""
        return self.d_model if self.frontend == "identity" else self.conv_in_dim

    def validate(self) -> None:
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_ffn < 1:
            raise ConfigError(f"d_ffn must be >= 1, got {self.d_ffn}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.pooling != "mean":
            raise ConfigError(f"unsupported pooling {self.pooling!r}")
        if self.frontend not in ("identity", "conv"):
            raise ConfigError(f"unknown frontend kind {self.frontend!r}")
        if self.frontend == "conv":
            if not self.conv_layers:
                raise ConfigError("conv frontend requires at least one conv layer")
            if self.conv_layers[-1].channels != self.d_model:
                raise ConfigError("last conv layer must emit d_model channels")
            for layer in self.conv_layers:
                if layer.channels < 1 or layer.kernel < 1 or layer.stride < 1:
                    raise ConfigError(f"invalid conv layer {layer}")
        elif self.conv_layers:
            raise ConfigError("conv_layers given but frontend is identity")

    def to_dict(self) -> dict:
        return {
            "n_blocks": self.n_blocks,
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "d_ffn": self.d_ffn,
            "frontend": self.frontend,
            "conv_layers": [[c.channels, c.kernel, c.stride] for c in self.conv_layers],
            "conv_in_dim": self.conv_in_dim,
            "n_classes": self.n_classes,
            "pooling": self.pooling,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        cfg = cls(
            n_blocks=int(d.get("n_blocks", 4)),
            d_model=int(d.get("d_model", 32)),
            n_heads=int(d.get("n_heads", 4)),
            d_ffn=int(d.get("d_ffn", 64)),
            frontend=d.get("frontend", "identity"),
            conv_layers=[ConvLayerSpec(*map(int, c)) for c in d.get("conv_layers", [])],
            conv_in_dim=int(d.get("conv_in_dim", 1)),
            n_classes=int(d.get("n_classes", 6)),
            pooling=d.get("pooling", "mean"),
        )
        cfg.validate()
        return cfg


@dataclass
class BlockInfo:
    block_id: str
    origin: str  # "original" | "expanded"
    trainable: bool
    source: str | None = None  # id of the block this one was copied from

    def to_dict(self) -> dict:
        return {"id": self.block_id, "origin": self.origin,
                "trainable": self.trainable, "source": self.source}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockInfo":
        return cls(block_id=d["id"], origin=d["origin"],
                   trainable=bool(d["trainable"]), source=d.get("source"))


# per-block parameter suffixes in declaration order; weights get the
# truncated-normal init, everything else in _ONES is gain-initialized
BLOCK_PARAM_SHAPES = (
    ("ln1.gain", "d"), ("ln1.shift", "d"),
    ("attn.q.weight", "dd"), ("attn.q.bias", "d"),
    ("attn.k.weight", "dd"), ("attn.k.bias", "d"),
    ("attn.v.weight", "dd"), ("attn.v.bias", "d"),
    ("attn.o.weight", "dd"), ("attn.o.bias", "d"),
    ("ln2.gain", "d"), ("ln2.shift", "d"),
    ("ffn.w1.weight", "df"), ("ffn.w1.bias", "f"),
    ("ffn.w2.weight", "fd"), ("ffn.w2.bias", "d"),
)
_ONES_SUFFIXES = ("ln1.gain", "ln2.gain")


def _block_shape(code: str, d: int, f: int) -> tuple[int, ...]:
    return {"d": (d,), "f": (f,), "dd": (d, d), "df": (d, f), "fd": (f, d)}[code]


def block_param_count(config: EncoderConfig) -> int:
    d, f = config.d_model, config.d_ffn
    return 4 * d * d + 4 * d + 2 * d * f + f + d + 4 * d


def frontend_param_count(config: EncoderConfig) -> int:
    if config.frontend == "identity":
        return 0
    total = 0
    c_in = config.conv_in_dim
    for layer in config.conv_layers:
        total += layer.kernel * c_in * layer.channels + layer.channels
        c_in = layer.channels
    return total


def head_param_count(config: EncoderConfig) -> int:
    return config.d_model * config.n_classes + config.n_classes


def conv_output_length(length: int, conv_layers: list[ConvLayerSpec]) -> int:
    """Frame count after the strided conv stack; <= 0 means input too short."""
    for layer in conv_layers:
        length = (length - layer.kernel) // layer.stride + 1
        if length < 1:
            return 0
    return length


class EncoderModel:
    """Config + parameter store + ordered block index.

    Parameter names follow ``block.<id>.<suffix>`` plus ``frontend.*`` and
    ``head.*``; the block index carries origin and trainability metadata
    that expansion updates.
    """

    def __init__(self, config: EncoderConfig, store: ParameterStore,
                 block_index: list[BlockInfo], rng_state: int,
                 expansion: dict | None = None):
        self.config = config
        self.store = store
        self.block_index = block_index
        self.rng_state = int(rng_state)
        self.expansion = expansion

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config: EncoderConfig, seed: int) -> "EncoderModel":
        config.validate()
        model = cls(config, ParameterStore(), [], seed & ((1 << 64) - 1))
        rng = model._draw_rng()
        if config.frontend == "conv":
            c_in = config.conv_in_dim
            for i, layer in enumerate(config.conv_layers):
                model.store.add(f"frontend.conv{i}.weight",
                                truncated_normal(rng, (layer.kernel * c_in, layer.channels), INIT_STD),
                                frozen=True)
                model.store.add(f"frontend.conv{i}.bias", np.zeros(layer.channels), frozen=True)
                c_in = layer.channels
        for i in range(config.n_blocks):
            block_id = str(i)
            model.block_index.append(BlockInfo(block_id, "original", trainable=True))
            model._init_block_params(block_id, rng)
        model.store.add("head.weight",
                        truncated_normal(rng, (config.d_model, config.n_classes), INIT_STD))
        model.store.add("head.bias", np.zeros(config.n_classes))
        return model

    def _draw_rng(self) -> np.random.Generator:
        rng = generator(self.rng_state)
        self.rng_state = splitmix64(self.rng_state)
        return rng

    def _init_block_params(self, block_id: str, rng: np.random.Generator) -> None:
        d, f = self.config.d_model, self.config.d_ffn
        for suffix, code in BLOCK_PARAM_SHAPES:
            shape = _block_shape(code, d, f)
            if suffix.endswith(".weight"):
                value = truncated_normal(rng, shape, INIT_STD)
            elif suffix in _ONES_SUFFIXES:
                value = np.ones(shape)
            else:
                value = np.zeros(shape)
            self.store.add(f"block.{block_id}.{suffix}", value)

    def reinit_head(self, n_classes: int | None = None) -> None:
        """Fresh head for a new target class inventory; advances the model RNG."""
        if n_classes is not None:
            if n_classes < 2:
                raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
            self.config.n_classes = int(n_classes)
        rng = self._draw_rng()
        self.store.replace("head.weight",
                           truncated_normal(rng, (self.config.d_model, self.config.n_classes), INIT_STD))
        self.store.replace("head.bias", np.zeros(self.config.n_classes))

    def clone(self) -> "EncoderModel":
        """Deep copy: independent store, block index, and RNG state."""
        store = ParameterStore()
        for name, entry in self.store.items():
            store.add(name, entry.tensor.data.copy(), frozen=entry.frozen,
                      m=entry.m.copy(), v=entry.v.copy(), step=entry.step)
        return EncoderModel(copy.deepcopy(self.config), store,
                            [copy.deepcopy(b) for b in self.block_index],
                            self.rng_state, copy.deepcopy(self.expansion))

    # -- parameter access ----------------------------------------------------

    def block_ids(self, origin: str | None = None) -> list[str]:
        return [b.block_id for b in self.block_index
                if origin is None or b.origin == origin]

    def block_info(self, block_id: str) -> BlockInfo:
        for info in self.block_index:
            if info.block_id == block_id:
                return info
        raise StateError(f"unknown block id {block_id!r}")

    def block_params(self, block_id: str) -> F.BlockParams:
        prefix = f"block.{block_id}."
        tensors = {suffix: self.store.tensor(prefix + suffix)
                   for suffix, _ in BLOCK_PARAM_SHAPES}
        zll_w = zll_b = None
        if prefix + "zll.weight" in self.store:
            zll_w = self.store.tensor(prefix + "zll.weight")
            zll_b = self.store.tensor(prefix + "zll.bias")
        return F.BlockParams(
            ln1_gain=tensors["ln1.gain"], ln1_shift=tensors["ln1.shift"],
            wq=tensors["attn.q.weight"], bq=tensors["attn.q.bias"],
            wk=tensors["attn.k.weight"], bk=tensors["attn.k.bias"],
            wv=tensors["attn.v.weight"], bv=tensors["attn.v.bias"],
            wo=tensors["attn.o.weight"], bo=tensors["attn.o.bias"],
            ln2_gain=tensors["ln2.gain"], ln2_shift=tensors["ln2.shift"],
            w1=tensors["ffn.w1.weight"], b1=tensors["ffn.w1.bias"],
            w2=tensors["ffn.w2.weight"], b2=tensors["ffn.w2.bias"],
            zll_weight=zll_w, zll_bias=zll_b,
        )

    # -- forward -------------------------------------------------------------

    def _frontend(self, frames: Tensor,
                  pad_mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """[B, T, input_dim] frames and mask -> [B, T', d_model] and its mask."""
        if frames.shape[2] != self.config.input_dim:
            raise DimensionError(
                f"{self.config.frontend} frontend needs {self.config.input_dim}-dim "
                f"frames, got {frames.shape[2]}")
        if self.config.frontend == "identity":
            return frames, pad_mask
        # conv mixes neighbouring frames, so padding must be a suffix; the
        # batch is trimmed to its longest true length, and each sample's
        # outputs past its own conv output length are masked out
        lengths = pad_mask.sum(axis=1)
        if not np.array_equal(pad_mask, np.arange(pad_mask.shape[1]) < lengths[:, None]):
            raise InputError("conv frontend requires suffix padding")
        layers = self.config.conv_layers
        out_lengths = np.array([conv_output_length(int(n), layers) for n in lengths])
        if out_lengths.min() < 1:
            raise InputError(f"input length {int(lengths[out_lengths.argmin()])} "
                             "below the conv receptive field")
        true_max = int(lengths.max())
        if true_max < frames.shape[1]:
            frames = _slice_frames(frames, true_max)
        x = frames
        for i, layer in enumerate(layers):
            w = self.store.tensor(f"frontend.conv{i}.weight")
            b = self.store.tensor(f"frontend.conv{i}.bias")
            x = ad.gelu(F.linear_forward(ad.unfold1d(x, layer.kernel, layer.stride), w, b))
        return x, np.arange(x.shape[1]) < out_lengths[:, None]

    def forward(self, frames, pad_mask: np.ndarray | None = None) -> Tensor:
        """Frames [B, T, d_in] with a [B, T] mask -> class logits [B, n_classes].

        The mask is True on real frames and defaults to all True.  A single
        [T, d_in] sequence (with a [T] mask) runs as a batch of one and
        returns [n_classes].
        """
        if not isinstance(frames, Tensor):
            frames = Tensor(frames)
        single = frames.ndim == 2
        if single:
            frames = ad.reshape(frames, (1,) + frames.shape)
        if frames.ndim != 3 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise InputError(f"expected non-empty [T, d] or [B, T, d] input, "
                             f"got shape {frames.shape}")
        if not np.isfinite(frames.data).all():
            raise InputError("non-finite values in model input")
        if pad_mask is None:
            pad_mask = np.ones(frames.shape[:2], dtype=bool)
        else:
            pad_mask = np.asarray(pad_mask, dtype=bool)
            if single:
                pad_mask = pad_mask[None]
            if pad_mask.shape != frames.shape[:2]:
                raise DimensionError(
                    f"pad_mask shape {pad_mask.shape} != frames {frames.shape[:2]}")
            if not pad_mask.any(axis=1).all():
                raise InputError("pad_mask excludes every frame of a sample")
        x, pad_mask = self._frontend(frames, pad_mask)
        heads = self.config.n_heads
        for info in self.block_index:
            p = self.block_params(info.block_id)
            if info.origin == "expanded":
                x = F.expanded_block_forward(x, p, heads, pad_mask)
            else:
                x = F.encoder_block_forward(x, p, heads, pad_mask)
        pooled = F.masked_mean_pool(x, pad_mask)
        logits = F.linear_forward(pooled, self.store.tensor("head.weight"),
                                  self.store.tensor("head.bias"))
        return ad.reshape(logits, logits.shape[1:]) if single else logits

    def logits(self, frames, pad_mask: np.ndarray | None = None) -> np.ndarray:
        """Tape-free forward for evaluation; same shapes as ``forward``."""
        with ad.no_grad():
            return self.forward(frames, pad_mask).data


def _slice_frames(t: Tensor, n: int) -> Tensor:
    """Differentiable [:, 0:n] frame slice of [B, T, d] (only needed under
    an active tape)."""
    def backward(g):
        full = np.zeros_like(t.data)
        full[:, :n] = g
        return (full,)

    return ad._node(t.data[:, :n].copy(), (t,), backward)


def build_model(config: EncoderConfig, seed: int) -> EncoderModel:
    return EncoderModel.build(config, seed)


def expected_param_count(config: EncoderConfig) -> int:
    """Closed-form parameter count for a freshly built (unexpanded) model."""
    return (frontend_param_count(config)
            + config.n_blocks * block_param_count(config)
            + head_param_count(config))

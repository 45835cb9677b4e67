"""Encoder model: feature frontend, block stack, pooling, classifier head.

The forward pass runs on batches of [B, T, d_in] frames with a [B, T]
padding mask; a single [T, d_in] sequence is a batch of one.  After the
frontend, the blocks and pooling see only the real frames, packed as rows,
and attention scores them in shared sequences that hold several short
samples each (``autodiff.pack_sequences``).
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import functional as F
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, InputError, StateError
from .labels import N_CLASSES
from .params import ParameterStore
from .rngutil import generator, splitmix64, truncated_normal

INIT_STD = 0.02
FREEZE_POLICIES = ("freeze-original", "non-frozen", "head-only")


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

    @property
    def input_dim(self) -> int:
        """Width of the frames the model takes: d_model for the identity
        frontend, conv_in_dim for the conv frontend."""
        return self.d_model if self.frontend == "identity" else self.conv_in_dim

    @property
    def min_input_length(self) -> int:
        """Shortest frame count the frontend accepts: 1 for the identity
        frontend, the receptive field of the conv stack (the inverse of
        ``conv_output_length`` at one output frame) for the conv frontend."""
        length = 1
        for layer in reversed(self.conv_layers):
            length = (length - 1) * layer.stride + layer.kernel
        return length

    def validate(self) -> None:
        if self.n_blocks < 1:
            raise ConfigError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_ffn < 1:
            raise ConfigError(f"d_ffn must be >= 1, got {self.d_ffn}")
        if self.frontend not in ("identity", "conv"):
            raise ConfigError(f"unknown frontend kind {self.frontend!r}")
        if self.frontend == "conv":
            if not self.conv_layers:
                raise ConfigError("conv frontend requires at least one conv layer")
            if self.conv_layers[-1].channels != self.d_model:
                raise ConfigError("last conv layer must emit d_model channels")
            if self.conv_in_dim < 1:
                raise ConfigError(f"conv_in_dim must be >= 1, got {self.conv_in_dim}")
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
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        cfg = dataclass_from(cls, d)
        try:
            cfg.conv_layers = [ConvLayerSpec(*map(int, c)) for c in cfg.conv_layers]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"conv_layers: {exc}") from exc
        cfg.validate()
        return cfg


def dataclass_from(cls, section: dict, **fixed):
    """Build the dataclass ``cls`` from a config section.

    Each key names a field other than the ``fixed`` ones, whose values the
    caller sets; any other key is a ``ConfigError`` that names it.  A value
    overrides the field's default and is cast to the default's type when
    that is int or float (null only where the type admits None).  A bool,
    or a number with a fractional part for an int field, is a
    ``ConfigError`` rather than a truncation.
    """
    names = {f.name: f for f in fields(cls)}
    kwargs = dict(fixed)
    for key, value in section.items():
        if key in fixed:
            raise ConfigError(f"{key!r} is fixed by the command (a flag or another "
                              "section) and cannot be set here")
        if key not in names:
            raise ConfigError(f"{cls.__name__} has no setting {key!r}")
        f = names[key]
        kind = type(f.default)
        if kind in (int, float) and not (value is None and "None" in str(f.type)):
            if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                           and not value.is_integer()):
                raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")
            try:
                value = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        kwargs[key] = value
    return cls(**kwargs)


@dataclass
class BlockInfo:
    block_id: str
    origin: str  # "original" | "expanded"
    source: str | None = None  # id of the block this one was copied from

    def to_dict(self) -> dict:
        return {"id": self.block_id, "origin": self.origin, "source": self.source}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockInfo":
        return cls(block_id=d["id"], origin=d["origin"], source=d.get("source"))


def param_layout(config: EncoderConfig,
                 block_index: list[BlockInfo]) -> dict[str, tuple[int, ...]]:
    """Ordered ``{name: shape}`` of every parameter of a model with this
    config and block index: frontend, blocks (expanded ones with their ZLL
    gate), head.  ``EncoderModel.build`` draws initial values in this order.
    """
    layout = {}
    c_in = config.conv_in_dim
    for i, layer in enumerate(config.conv_layers):
        layout[f"frontend.conv{i}.weight"] = (layer.kernel * c_in, layer.channels)
        layout[f"frontend.conv{i}.bias"] = (layer.channels,)
        c_in = layer.channels
    d, f = config.d_model, config.d_ffn
    for info in block_index:
        p = f"block.{info.block_id}."
        layout.update({p + "ln1.gain": (d,), p + "ln1.shift": (d,)})
        for proj in "qkvo":
            layout.update({f"{p}attn.{proj}.weight": (d, d), f"{p}attn.{proj}.bias": (d,)})
        layout.update({p + "ln2.gain": (d,), p + "ln2.shift": (d,),
                       p + "ffn.w1.weight": (d, f), p + "ffn.w1.bias": (f,),
                       p + "ffn.w2.weight": (f, d), p + "ffn.w2.bias": (d,)})
        if info.origin == "expanded":
            layout.update({p + "zll.weight": (d, d), p + "zll.bias": (d,)})
    layout["head.weight"] = (d, N_CLASSES)
    layout["head.bias"] = (N_CLASSES,)
    return layout


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
    ``head.*``; the block index carries each block's origin and source,
    which expansion sets.  Freeze flags live on the store's tensors only.
    The two are the whole record of an expansion (``expansion``).
    """

    def __init__(self, config: EncoderConfig, store: ParameterStore,
                 block_index: list[BlockInfo], rng_state: int):
        self.config = config
        self.store = store
        self.block_index = block_index
        self.rng_state = int(rng_state)
        self._blocks: dict[str, dict[str, Tensor]] = {}
        self._blocks_key: tuple | None = None  # (store, store.version) _blocks was built from

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config: EncoderConfig, seed: int) -> "EncoderModel":
        config.validate()
        index = [BlockInfo(str(i), "original") for i in range(config.n_blocks)]
        model = cls(config, ParameterStore(), index, seed & ((1 << 64) - 1))
        rng = model._draw_rng()
        # weights get the truncated-normal init, layer-norm gains ones, the
        # rest zeros; the frontend is frozen under every policy
        for name, shape in param_layout(config, index).items():
            if name.endswith(".weight"):
                value = truncated_normal(rng, shape, INIT_STD)
            elif name.endswith(".gain"):
                value = np.ones(shape)
            else:
                value = np.zeros(shape)
            model.store.add(name, value, frozen=name.startswith("frontend."))
        model.check_layout()
        return model

    def _draw_rng(self) -> np.random.Generator:
        rng = generator(self.rng_state)
        self.rng_state = splitmix64(self.rng_state)
        return rng

    def reinit_head(self) -> None:
        """Fresh trainable six-class head; advances the model RNG."""
        rng = self._draw_rng()
        self.store.replace("head.weight",
                           truncated_normal(rng, (self.config.d_model, N_CLASSES), INIT_STD))
        self.store.replace("head.bias", np.zeros(N_CLASSES))

    def clone(self) -> "EncoderModel":
        """Deep copy: independent store, block index, and RNG state."""
        store = ParameterStore()
        for name, entry in self.store.items():
            store.add(name, entry.tensor.data.copy(), frozen=entry.frozen,
                      m=entry.m, v=entry.v, step=entry.step)
        return EncoderModel(copy.deepcopy(self.config), store,
                            [copy.deepcopy(b) for b in self.block_index], self.rng_state)

    def check_layout(self) -> None:
        """The store holds the parameters that ``param_layout`` lays out for
        the config and block index, each at its shape, and no other; else a
        ``DimensionError`` naming the first that differs.

        Shapes are checked where parameters are bound: here, after ``build``
        and ``expand``; in ``ParameterStore.replace``, which keeps each
        entry's shape; and in ``load_checkpoint``, entry by entry.  The
        forward checks none of them.
        """
        layout = param_layout(self.config, self.block_index)
        shapes = {name: entry.tensor.shape for name, entry in self.store.items()}
        for name in [*layout, *(n for n in shapes if n not in layout)]:
            want, have = layout.get(name), shapes.get(name)
            if have is None:
                raise DimensionError(f"{name} is laid out as {want} but not bound")
            if want is None:
                raise DimensionError(f"{name} is bound but not laid out")
            if have != want:
                raise DimensionError(f"{name} has shape {have}, expected {want}")

    # -- expansion record ----------------------------------------------------

    def frozen_under(self, policy: str, name: str) -> bool:
        """Whether a freeze policy freezes parameter ``name``: the frontend
        always; under head-only all but the head; under freeze-original the
        original blocks; under non-frozen nothing else."""
        if name.startswith("frontend."):
            return True
        if policy == "head-only":
            return not name.startswith("head.")
        if policy == "non-frozen" or name.startswith("head."):
            return False
        return self.block_info(name.split(".")[1]).origin == "original"

    @property
    def expansion(self) -> dict | None:
        """``{"multiplier", "source_blocks", "freeze_policy"}`` read from the
        block index and the freeze flags, or None without copies.  The
        policy is the one whose rule the flags follow, None if none does."""
        originals = [b.block_id for b in self.block_index if b.origin == "original"]
        copies = len(self.block_index) - len(originals)
        if not copies:
            return None
        policy = next((p for p in FREEZE_POLICIES
                       if all(entry.frozen == self.frozen_under(p, name)
                              for name, entry in self.store.items())), None)
        return {"multiplier": 1 + copies // len(originals), "source_blocks": originals,
                "freeze_policy": policy}

    # -- parameter access ----------------------------------------------------

    def block_ids(self) -> list[str]:
        return [b.block_id for b in self.block_index]

    def block_info(self, block_id: str) -> BlockInfo:
        for info in self.block_index:
            if info.block_id == block_id:
                return info
        raise StateError(f"unknown block id {block_id!r}")

    def block_params(self) -> dict[str, dict[str, Tensor]]:
        """Each block's tensors keyed by suffix, e.g. ``p["attn.q.weight"]``;
        an expanded block also carries ``zll.weight`` and ``zll.bias``.

        The map is read from the store in one pass, and again only after the
        store binds a new tensor (``add``, ``replace``, so also expansion) or
        the model holds another store.  Callers must not modify it.
        """
        key = (self.store, self.store.version)
        if self._blocks_key != key:
            self._blocks = {}
            for name, entry in self.store.items():
                if name.startswith("block."):
                    # interned, so every kept model's map shares one copy of
                    # each id and suffix string
                    block_id, suffix = map(sys.intern, name.split(".", 2)[1:])
                    self._blocks.setdefault(block_id, {})[suffix] = entry.tensor
            self._blocks_key = key
        return self._blocks

    # -- forward -------------------------------------------------------------

    def frontend_rows(self, frames, pad_mask: np.ndarray) -> tuple[Tensor, np.ndarray]:
        """Frames [B, T, d_in] with a [B, T] mask -> the frontend's real
        output frames as packed [N, d_model] rows (batch-major) and the
        frontend's [B, T'] mask, True on those N frames.

        The input mask is True on real frames; every sample needs one, and
        the conv frontend needs as many as its receptive field.  The
        frontend is a fixed function of its input: frames are data and its
        parameters never train, so the rows are a tape leaf that needs no
        gradient.
        """
        frames = _as_array(frames, np.float64)
        if frames.ndim != 3 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise InputError(f"expected non-empty [T, d] or [B, T, d] input, "
                             f"got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise InputError("non-finite values in model input")
        pad_mask = _as_array(pad_mask, bool)
        if pad_mask.shape != frames.shape[:2]:
            raise DimensionError(
                f"pad_mask shape {pad_mask.shape} != frames {frames.shape[:2]}")
        if not pad_mask.any(axis=1).all():
            raise InputError("pad_mask excludes every frame of a sample")
        if frames.shape[2] != self.config.input_dim:
            raise DimensionError(
                f"{self.config.frontend} frontend needs {self.config.input_dim}-dim "
                f"frames, got {frames.shape[2]}")
        if self.config.frontend == "identity":
            return Tensor(frames[pad_mask]), pad_mask
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
        x = frames[:, :int(lengths.max())]
        for i, layer in enumerate(layers):
            w = self.store.tensor(f"frontend.conv{i}.weight")
            b = self.store.tensor(f"frontend.conv{i}.bias")
            x, _ = ad._gelu_fwd(F.linear_forward(ad.unfold1d(x, layer.kernel, layer.stride),
                                                 w, b).data)
        pad_mask = np.arange(x.shape[1]) < out_lengths[:, None]
        return Tensor(x[pad_mask]), pad_mask

    def encode_rows(self, rows: Tensor, pad_mask: np.ndarray, *,
                    every_copy: bool = False) -> Tensor:
        """Packed [N, d_model] rows with their [B, T'] mask -> pooled
        [B, d_model] embeddings: the blocks and masked mean pooling.

        One ``autodiff.Packing`` of the mask places the samples into shared
        attention sequences; the blocks and pooling take the rows with it.

        An expanded block whose ZLL gate is closed (``zll.weight`` and
        ``zll.bias`` frozen and all zero, read on every call) is skipped:
        ``x + ZLL(block(x))`` is then ``x`` whenever ``block(x)`` is finite,
        and pooling checks what reaches it.  ``every_copy`` runs every block
        anyway, as ``expansion.verify_preservation`` must.  This is the one
        place that decides which copies run.
        """
        packing = ad.pack_sequences(pad_mask)
        heads = self.config.n_heads
        params = self.block_params()
        for info in self.block_index:
            p = params[info.block_id]
            if "zll.weight" not in p:
                rows = F.encoder_block_forward(rows, p, heads, packing)
            elif every_copy or not _gate_closed(p):
                rows = F.expanded_block_forward(rows, p, heads, packing)
        return F.masked_mean_pool(rows, packing)

    def head(self, pooled: Tensor) -> Tensor:
        """Pooled [B, d_model] embeddings -> class logits [B, 6]."""
        return ad.linear(pooled, self.store.tensor("head.weight"),
                         self.store.tensor("head.bias"))

    def forward(self, frames, pad_mask: np.ndarray | None = None) -> Tensor:
        """Frames [B, T, d_in] with a [B, T] mask -> class logits [B, 6]:
        ``head(encode_rows(*frontend_rows(frames, pad_mask)))``.

        The mask defaults to all True.  A single [T, d_in] sequence (with a
        [T] mask) runs as a batch of one and returns [6].
        """
        frames = _as_array(frames, np.float64)
        single = frames.ndim == 2
        if single:
            frames = frames[None]
            pad_mask = None if pad_mask is None else _as_array(pad_mask, bool)[None]
        if pad_mask is None:
            pad_mask = np.ones(frames.shape[:2], dtype=bool)
        logits = self.head(self.encode_rows(*self.frontend_rows(frames, pad_mask)))
        return ad.reshape(logits, logits.shape[1:]) if single else logits

    def logits(self, frames, pad_mask: np.ndarray | None = None) -> np.ndarray:
        """Tape-free forward for evaluation; same shapes as ``forward``."""
        with ad.no_grad():
            return self.forward(frames, pad_mask).data


def _as_array(value, dtype) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # a ragged nested list, say
        raise InputError(f"model input is not a {np.dtype(dtype)} array: {exc}") from exc


def _gate_closed(p: dict[str, Tensor]) -> bool:
    """An expanded block's ZLL gate is frozen and exactly zero."""
    gate = (p["zll.weight"], p["zll.bias"])
    return not any(t.requires_grad or t.data.any() for t in gate)


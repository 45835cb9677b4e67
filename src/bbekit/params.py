"""Named parameter registry with freeze flags and optimizer state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError, StateError


def decays(name: str) -> bool:
    """AdamW's weight decay applies to weight matrices only, never to
    biases, norm parameters, or the zero-initialized copy projections."""
    return name.endswith(".weight") and ".zll." not in name


class ParamEntry:
    """A parameter tensor, its AdamW moments (None while frozen) and its
    AdamW step counter."""

    __slots__ = ("tensor", "m", "v", "step")

    def __init__(self, tensor: Tensor, m: np.ndarray | None, v: np.ndarray | None,
                 step: int = 0):
        self.tensor = tensor
        self.m = m
        self.v = v
        self.step = int(step)

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad


@dataclass
class FlatState:
    """The trainable entries' values, gradients and AdamW moments, each one
    contiguous float64 buffer that the entries' arrays are views into.
    Entries whose weights decay come first, so they are ``[:n_decay]``."""

    value: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    entries: list[ParamEntry]  # in buffer order
    n_decay: int


class ParameterStore:
    """Ordered map from dotted names to parameters.

    Frozen entries have ``requires_grad`` off and hold neither a gradient
    buffer (``grad is None``) nor AdamW moments (``m`` and ``v`` are None),
    so backward and the optimizer never touch them.

    The trainable entries live in one ``FlatState``.  Adding, replacing,
    freezing or thawing an entry marks the layout stale, and the next
    ``flat()`` lays it out again in one pass (``n_params(only_trainable=
    True)``, ``zero_grads`` and ``adamw_step`` call it), so building a model
    entry by entry copies each array once.  Write an entry's arrays in
    place; an array bound in its stead is not seen by the buffers.

    Only frozen entries share an array: ``expand`` stores a copied block's
    values as its source block's arrays while both are frozen, and a thaw
    or a layout gives an entry its own.  Writing one frozen entry in place
    writes every entry that shares its array.
    """

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}
        self._flat: FlatState | None = None  # None while stale
        # bumped whenever an entry's tensor is bound anew, so caches of the
        # tensors (``EncoderModel.block_params``) know to rebuild
        self.version = 0

    def add(self, name: str, value: np.ndarray, frozen: bool = False,
            m: np.ndarray | None = None, v: np.ndarray | None = None,
            step: int = 0) -> ParamEntry:
        """A trainable entry copies the given moments (zeros by default); a
        frozen one keeps none, and moments given for it are dropped."""
        if name in self._entries:
            raise StateError(f"duplicate parameter name {name!r}")
        tensor = Tensor(value, requires_grad=not frozen)

        def moment(given):
            if frozen:
                return None
            if given is None:
                return np.zeros_like(tensor.data)
            return np.array(given, dtype=np.float64).reshape(tensor.data.shape)

        entry = ParamEntry(tensor, moment(m), moment(v), step)
        self._entries[name] = entry
        self._flat = None
        self.version += 1
        return entry

    def replace(self, name: str, value: np.ndarray) -> ParamEntry:
        """Swap in a fresh trainable value of the entry's shape, resetting
        optimizer state; a value of another shape is a DimensionError."""
        shape = self[name].tensor.shape
        tensor = Tensor(value, requires_grad=True)
        if tensor.shape != shape:
            raise DimensionError(f"{name} has shape {tensor.shape}, expected {shape}")
        entry = ParamEntry(tensor, np.zeros_like(tensor.data), np.zeros_like(tensor.data))
        self._entries[name] = entry
        self._flat = None
        self.version += 1
        return entry

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> ParamEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise StateError(f"unknown parameter {name!r}") from None

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensor(self, name: str) -> Tensor:
        return self[name].tensor

    def value(self, name: str) -> np.ndarray:
        return self[name].tensor.data

    def grad(self, name: str) -> np.ndarray:
        return self[name].tensor.grad

    def set_frozen(self, name: str, frozen: bool) -> None:
        """Freezing drops the gradient buffer and the AdamW moments (the
        step counter stays); thawing starts fresh: a zero gradient buffer,
        zero moments and step 0, so bias correction matches the moments.

        A frozen value that is a view (of the flat buffers, say) becomes a
        copy of its own, and one that is not stays the array it is, which
        other frozen entries may share; a thawed value is always a copy."""
        entry = self[name]
        tensor = entry.tensor
        if frozen == entry.frozen:
            return
        tensor.requires_grad = not frozen
        if frozen:
            if tensor.data.base is not None:
                tensor.data = tensor.data.copy()
            tensor.grad = entry.m = entry.v = None
        else:
            tensor.data = tensor.data.copy()
            tensor.grad = np.zeros_like(tensor.data)
            entry.m = np.zeros_like(tensor.data)
            entry.v = np.zeros_like(tensor.data)
            entry.step = 0
        self._flat = None

    def freeze_where(self, predicate) -> None:
        for name in self._entries:
            self.set_frozen(name, bool(predicate(name)))

    def flat(self) -> FlatState:
        """The trainable entries' flat buffers, laid out again if stale."""
        if self._flat is None:
            self._flat = self._lay_out()
        return self._flat

    def _lay_out(self) -> FlatState:
        trainable = [(name, e) for name, e in self._entries.items() if not e.frozen]
        for name, entry in trainable:
            grad, value = entry.tensor.grad, entry.tensor.data
            if grad.shape != value.shape:
                raise StateError(
                    f"grad shape {grad.shape} != value shape {value.shape} for {name!r}")
        trainable.sort(key=lambda item: not decays(item[0]))  # stable
        n = sum(e.tensor.size for _, e in trainable)
        flat = FlatState(value=np.empty(n), grad=np.empty(n), m=np.empty(n), v=np.empty(n),
                         entries=[e for _, e in trainable],
                         n_decay=sum(e.tensor.size for name, e in trainable if decays(name)))
        start = 0
        for entry in flat.entries:
            tensor = entry.tensor
            end = start + tensor.size
            views = []
            for buffer, array in ((flat.value, tensor.data), (flat.grad, tensor.grad),
                                  (flat.m, entry.m), (flat.v, entry.v)):
                buffer[start:end] = array.reshape(-1)
                views.append(buffer[start:end].reshape(tensor.shape))
            tensor.data, tensor.grad, entry.m, entry.v = views
            start = end
        return flat

    def zero_grads(self) -> None:
        self.flat().grad[...] = 0.0

    def n_params(self, only_trainable: bool = False) -> int:
        if only_trainable:
            return self.flat().value.size
        return sum(e.tensor.size for e in self._entries.values())

    def snapshot(self) -> tuple:
        """Copies of the flat ``value``, ``m`` and ``v`` buffers and of the
        trainable entries' step counters, after the ``FlatState`` they came
        from: all that training writes, since frozen entries' values and
        step counters never move."""
        flat = self.flat()
        steps = np.array([e.step for e in flat.entries], dtype=np.int64)
        return (flat,) + tuple(b.copy() for b in (flat.value, flat.m, flat.v)) + (steps,)

    def restore(self, snapshot: tuple) -> None:
        """Write a ``snapshot``'s copies back into the buffers it came from.
        A store laid out again since (an entry added, replaced, frozen or
        thawed) is a ``StateError``: its entries no longer view them."""
        flat, *copies, steps = snapshot
        if self._flat is not flat:
            raise StateError("the store was laid out again since the snapshot")
        for buffer, copy in zip((flat.value, flat.m, flat.v), copies):
            buffer[...] = copy
        for entry, step in zip(flat.entries, steps.tolist()):
            entry.step = step

"""Named parameter registry with freeze flags and optimizer state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import StateError


@dataclass
class ParamEntry:
    tensor: Tensor
    m: np.ndarray | None  # AdamW moments; None while the entry is frozen
    v: np.ndarray | None
    step: int = 0

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad


class ParameterStore:
    """Ordered map from dotted names to parameters.

    Frozen entries have ``requires_grad`` off and hold neither a gradient
    buffer (``grad is None``) nor AdamW moments (``m`` and ``v`` are None),
    so backward and the optimizer never touch them.
    """

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

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

        entry = ParamEntry(tensor=tensor, m=moment(m), v=moment(v), step=int(step))
        self._entries[name] = entry
        return entry

    def replace(self, name: str, value: np.ndarray) -> ParamEntry:
        """Swap in a fresh trainable value, resetting optimizer state."""
        if name not in self._entries:
            raise StateError(f"unknown parameter {name!r}")
        tensor = Tensor(value, requires_grad=True)
        entry = ParamEntry(tensor=tensor, m=np.zeros_like(tensor.data),
                           v=np.zeros_like(tensor.data))
        self._entries[name] = entry
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
        zero moments and step 0, so bias correction matches the moments."""
        entry = self[name]
        tensor = entry.tensor
        tensor.requires_grad = not frozen
        if frozen:
            tensor.grad = entry.m = entry.v = None
        elif tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)
            entry.m = np.zeros_like(tensor.data)
            entry.v = np.zeros_like(tensor.data)
            entry.step = 0

    def freeze_where(self, predicate) -> None:
        for name in self._entries:
            self.set_frozen(name, bool(predicate(name)))

    def zero_grads(self) -> None:
        for entry in self._entries.values():
            if entry.tensor.grad is not None:
                entry.tensor.grad[...] = 0.0

    def n_params(self, only_trainable: bool = False) -> int:
        return sum(e.tensor.size for e in self._entries.values()
                   if not (only_trainable and e.frozen))

    def snapshot(self) -> dict[str, tuple[np.ndarray, np.ndarray | None,
                                          np.ndarray | None, int]]:
        """Copies of every entry's value, AdamW moments (None where frozen)
        and step counter."""
        return {name: (e.tensor.data.copy(), _copy(e.m), _copy(e.v), e.step)
                for name, e in self._entries.items()}

    def restore(self, snapshot: dict) -> None:
        """Write a ``snapshot`` back: values, moments and step counters.

        Freeze flags stay as they are now: an entry frozen since keeps no
        moments, and one thawed since keeps its fresh state (zero moments,
        step 0) where the snapshot holds no moments.
        """
        for name, (value, m, v, step) in snapshot.items():
            entry = self[name]
            if entry.tensor.data.shape != value.shape:
                raise StateError(f"shape mismatch restoring {name!r}")
            entry.tensor.data[...] = value
            if entry.frozen:
                entry.step = step
            elif m is None:
                entry.m[...] = entry.v[...] = 0.0
                entry.step = 0
            else:
                entry.m[...] = m
                entry.v[...] = v
                entry.step = step


def _copy(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else a.copy()

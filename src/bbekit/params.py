"""Named parameter registry with freeze flags and optimizer state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import StateError


@dataclass
class ParamEntry:
    tensor: Tensor
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad


class ParameterStore:
    """Ordered map from dotted names to parameters.

    Frozen entries have ``requires_grad`` off and hold no gradient buffer
    (``grad is None``), so backward never touches them.
    """

    def __init__(self):
        self._entries: dict[str, ParamEntry] = {}

    def add(self, name: str, value: np.ndarray, frozen: bool = False,
            m: np.ndarray | None = None, v: np.ndarray | None = None,
            step: int = 0) -> ParamEntry:
        if name in self._entries:
            raise StateError(f"duplicate parameter name {name!r}")
        tensor = Tensor(value, requires_grad=not frozen)
        entry = ParamEntry(
            tensor=tensor,
            m=np.zeros_like(tensor.data) if m is None else np.asarray(m, dtype=np.float64).reshape(tensor.data.shape),
            v=np.zeros_like(tensor.data) if v is None else np.asarray(v, dtype=np.float64).reshape(tensor.data.shape),
            step=int(step),
        )
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
        """Freezing drops the gradient buffer; thawing gives a zero one."""
        tensor = self[name].tensor
        tensor.requires_grad = not frozen
        if frozen:
            tensor.grad = None
        elif tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)

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

    def snapshot(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
        """Copies of every entry's value, AdamW moments and step counter."""
        return {name: (e.tensor.data.copy(), e.m.copy(), e.v.copy(), e.step)
                for name, e in self._entries.items()}

    def restore(self, snapshot: dict) -> None:
        """Write a ``snapshot`` back: values, moments and step counters."""
        for name, (value, m, v, step) in snapshot.items():
            entry = self[name]
            if entry.tensor.data.shape != value.shape:
                raise StateError(f"shape mismatch restoring {name!r}")
            entry.tensor.data[...] = value
            entry.m[...] = m
            entry.v[...] = v
            entry.step = step

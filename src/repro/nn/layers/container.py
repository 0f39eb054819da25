"""Module containers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for m in modules:
            self.register_child(m)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for m in self._children:
            x = m(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for m in reversed(self._children):
            grad = m.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self._children)

    def __getitem__(self, idx: int) -> Module:
        return self._children[idx]

"""Element-wise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    """max(x, 0).

    Both directions are branch-free: ``np.where`` on a mask of random signs
    mispredicts about every other element, while ``fmax`` and a mask
    multiply vectorize.  The forward equals ``np.where(x > 0, x, 0.0)`` bit
    for bit on every input, NaN and ±0 included.  The backward equals
    ``np.where(x > 0, grad, 0.0)`` bit for bit on finite gradients, except
    that a -0.0 gradient where ``x > 0`` comes back as +0.0; a non-finite
    gradient where ``x <= 0`` comes back as NaN (0 times inf) instead of 0.
    """

    _CACHE_ATTRS = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        self._mask = x > 0
        out = np.fmax(x, 0.0)  # NaN -> 0.0
        # fmax may return -0.0 for x = -0.0; adding +0.0 turns that into
        # +0.0 and leaves every other value unchanged.
        out += 0.0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_output, dtype=self.dtype) * self._mask
        grad += 0.0  # a masked-out negative gradient leaves -0.0
        return grad


class Tanh(Module):
    """Hyperbolic tangent — the paper's hash-head activation (sign surrogate)."""

    _CACHE_ATTRS = ("_out",)

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(np.asarray(x, dtype=self.dtype))
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=self.dtype) * (1.0 - self._out**2)


class Sigmoid(Module):
    """Logistic function, used by the BGAN-style baseline discriminator."""

    _CACHE_ATTRS = ("_out",)

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        out[~pos] = e / (1.0 + e)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=self.dtype) * self._out * (1 - self._out)

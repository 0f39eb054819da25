"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import as_generator


class Linear(Module):
    """Affine map ``y = x W + b`` with shapes (n, in) -> (n, out).

    ``init_scheme`` selects the weight initializer: ``"xavier"`` (paper's
    choice for the hash head) or ``"kaiming"`` (for ReLU-activated hidden
    layers).
    """

    _CACHE_ATTRS = ("_x",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        init_scheme: str = "xavier",
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"feature sizes must be positive: ({in_features}, {out_features})"
            )
        gen = as_generator(rng)
        initializers = {"xavier": init.xavier_uniform, "kaiming": init.kaiming_normal}
        if init_scheme not in initializers:
            raise ValueError(
                f"unknown init_scheme {init_scheme!r}; options: {sorted(initializers)}"
            )
        weight0 = initializers[init_scheme]((in_features, out_features), gen)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(Parameter(weight0, name="linear.weight"))
        self.bias = (
            self.register_parameter(
                Parameter(init.zeros((out_features,)), name="linear.bias")
            )
            if bias
            else None
        )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"Linear expected (n, {self.in_features}), got {x.shape}"
            )
        self._x = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data  # in place: out is freshly allocated
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=self.dtype)
        self.weight.grad += self._x.T @ grad_output
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return grad_output @ self.weight.data.T

"""Batch normalization layers."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class _BatchNorm(Module):
    """Shared implementation of 1-D and 2-D batch norm.

    Normalizes over all axes except the channel axis, tracks running
    statistics for eval mode, and learns per-channel scale (γ) / shift (β).
    Scale/shift are exempt from weight decay.
    """

    _CACHE_ATTRS = ("_cache",)

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        if num_features <= 0:
            raise ShapeError(f"num_features must be positive: {num_features}")
        if not 0 < momentum < 1:
            raise ValueError(f"momentum must be in (0, 1): {momentum}")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter(
            Parameter(init.ones((num_features,)), name="bn.gamma",
                      weight_decay_enabled=False)
        )
        self.beta = self.register_parameter(
            Parameter(init.zeros((num_features,)), name="bn.beta",
                      weight_decay_enabled=False)
        )
        self.running_mean = self.register_buffer(
            "running_mean", np.zeros(num_features, dtype=np.float64)
        )
        self.running_var = self.register_buffer(
            "running_var", np.ones(num_features, dtype=np.float64)
        )
        self._cache: tuple[np.ndarray, np.ndarray] | None = None
        self._reduce_axes: tuple[int, ...] = (0,)
        self._shape_for_broadcast: tuple[int, ...] = (1, num_features)

    def _apply_dtype(self, dtype: np.dtype) -> None:
        super()._apply_dtype(dtype)
        # Re-point the running-stat aliases at the freshly cast buffers.
        self.running_mean = self._buffers["running_mean"]
        self.running_var = self._buffers["running_var"]

    def _check_input(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        self._check_input(x)
        bshape = self._shape_for_broadcast
        if self.training:
            mean = x.mean(axis=self._reduce_axes)
            centered = x - mean.reshape(bshape)
            # One pass over the already-centered values instead of x.var()
            # re-centering internally; the squares' buffer is reused for
            # the output below.
            out = centered * centered
            var = out.mean(axis=self._reduce_axes)
            m = self.momentum
            # In-place so the registered buffers stay aliased.
            self.running_mean *= 1 - m
            self.running_mean += m * mean
            self.running_var *= 1 - m
            self.running_var += m * var
        else:
            mean, var = self.running_mean, self.running_var
            centered = x - mean.reshape(bshape)
            out = np.empty_like(centered)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = centered
        x_hat *= inv_std.reshape(bshape)
        if self.training:
            self._cache = (x_hat, inv_std)
        # Fold scale and shift into one affine pass: γ·x̂ + β = x̂·γ + β.
        np.multiply(x_hat, self.gamma.data.reshape(bshape), out=out)
        out += self.beta.data.reshape(bshape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (in training mode)")
        x_hat, inv_std = self._cache
        bshape = self._shape_for_broadcast
        grad = np.asarray(grad_output, dtype=self.dtype)
        axes = self._reduce_axes
        m = float(x_hat.size // self.num_features)  # values per channel

        scratch = grad * x_hat
        self.gamma.grad += scratch.sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)

        grad_x_hat = grad * self.gamma.data.reshape(bshape)
        # Standard batch-norm backward over the normalized activations,
        # accumulated in place on grad_x_hat; the third term reuses the
        # scratch buffer of the γ gradient.
        term2 = grad_x_hat.sum(axis=axes, keepdims=True) / m
        np.multiply(grad_x_hat, x_hat, out=scratch)
        term3 = np.multiply(
            x_hat, scratch.sum(axis=axes, keepdims=True) / m, out=scratch
        )
        grad_x_hat -= term2
        grad_x_hat -= term3
        grad_x_hat *= inv_std.reshape(bshape)
        return grad_x_hat


class BatchNorm1d(_BatchNorm):
    """Batch norm over (n, features) activations."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__(num_features, momentum, eps)
        self._reduce_axes = (0,)
        self._shape_for_broadcast = (1, num_features)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expected (n, {self.num_features}), got {x.shape}"
            )


class BatchNorm2d(_BatchNorm):
    """Batch norm over (n, c, h, w) activations, per channel."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__(num_features, momentum, eps)
        self._reduce_axes = (0, 2, 3)
        self._shape_for_broadcast = (1, num_features, 1, 1)

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d expected (n, {self.num_features}, h, w), got {x.shape}"
            )

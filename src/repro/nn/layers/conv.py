"""2-D convolution layer implemented via im2col matrix multiplication."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import as_generator


class Conv2d(Module):
    """Cross-correlation with square kernels over NCHW tensors.

    The im2col patch buffer is reused across forwards through a two-slot
    ring, so steady-state training does not reallocate the (large) column
    matrix every step.  Two slots cover the deepest overlap the trainers
    use (two captured forwards before their backwards, see
    :meth:`Module.capture_cache`); a third overlapping forward reuses the
    first slot's storage, and ``backward`` detects that (each forward
    stamps its slot with a sequence number) and raises instead of
    silently computing gradients from the wrong columns.
    """

    _CACHE_ATTRS = ("_cols", "_x_shape", "_out_hw", "_fwd_id", "_fwd_slot")

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ShapeError("channels, kernel_size and stride must be positive")
        if padding < 0:
            raise ShapeError(f"padding must be >= 0, got {padding}")
        gen = as_generator(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter(
            Parameter(init.kaiming_normal(shape, gen), name="conv.weight")
        )
        self.bias = (
            self.register_parameter(
                Parameter(init.zeros((out_channels,)), name="conv.bias")
            )
            if bias
            else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None
        self._fwd_id: int | None = None
        self._fwd_slot: int | None = None
        self._col_ring: list[np.ndarray | None] = [None, None]
        self._ring_owner: list[int | None] = [None, None]
        self._ring_slot = 0
        self._fwd_seq = 0

    def _apply_dtype(self, dtype: np.dtype) -> None:
        super()._apply_dtype(dtype)
        self._col_ring = [None, None]
        self._ring_owner = [None, None]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2d expected (n, {self.in_channels}, h, w), got {x.shape}"
            )
        slot = self._ring_slot
        self._ring_slot = 1 - slot
        cols, out_h, out_w = im2col(
            x, self.kernel_size, self.stride, self.padding,
            out=self._col_ring[slot],
        )
        self._col_ring[slot] = cols
        self._fwd_seq += 1
        self._fwd_id = self._ring_owner[slot] = self._fwd_seq
        self._fwd_slot = slot
        n = x.shape[0]
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (out_c, c*k*k)
        out = cols @ w_mat.T  # (n*oh*ow, out_c)
        if self.bias is not None:
            out = out + self.bias.data
        self._cols = cols
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        if self._ring_owner[self._fwd_slot] != self._fwd_id:
            raise RuntimeError(
                "Conv2d im2col buffer was overwritten by a later forward; "
                "at most two forwards can be live (captured) at once"
            )
        n = self._x_shape[0]
        out_h, out_w = self._out_hw
        grad = np.asarray(grad_output, dtype=self.dtype)
        if grad.shape != (n, self.out_channels, out_h, out_w):
            raise ShapeError(
                f"grad_output shape {grad.shape} does not match forward output "
                f"{(n, self.out_channels, out_h, out_w)}"
            )
        # (n*oh*ow, out_c)
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_mat.sum(axis=0)
        if not self.needs_input_grad:
            return None
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        grad_cols = grad_mat @ w_mat  # (n*oh*ow, c*k*k)
        return col2im(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding
        )

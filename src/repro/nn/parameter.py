"""Trainable parameter container for the :mod:`repro.nn` framework."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Dtypes the training stack supports.  float64 is the default (bit-stable
#: parity with the seed implementation); float32 trains about 1.7x faster
#: (``benchmarks/results/train_scale.txt``).
SUPPORTED_DTYPES: tuple[np.dtype, ...] = (np.dtype(np.float64), np.dtype(np.float32))


def resolve_dtype(dtype: str | np.dtype | type | None) -> np.dtype:
    """Normalize a dtype spec ("float32"/"float64"/np dtype) and validate it."""
    if dtype is None:
        return np.dtype(np.float64)
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        raise ConfigurationError(
            f"unsupported dtype {dtype!r}; options: "
            f"{sorted(d.name for d in SUPPORTED_DTYPES)}"
        )
    return resolved


class Parameter:
    """A named trainable array together with its accumulated gradient.

    Layers create parameters in their constructors; optimizers consume
    ``(data, grad)`` pairs and write updated values back into ``data``.
    ``weight_decay_enabled`` lets layers exempt parameters (e.g. batch-norm
    scale/shift) from L2 regularization, matching common practice.
    """

    __slots__ = ("name", "data", "grad", "weight_decay_enabled")

    def __init__(
        self,
        data: np.ndarray,
        name: str = "param",
        weight_decay_enabled: bool = True,
        dtype: str | np.dtype | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=resolve_dtype(dtype))
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.weight_decay_enabled = weight_decay_enabled

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def to(self, dtype: str | np.dtype) -> "Parameter":
        """Cast data and gradient to ``dtype`` (no-op when already there)."""
        resolved = resolve_dtype(dtype)
        if self.data.dtype != resolved:
            self.data = self.data.astype(resolved)
            self.grad = self.grad.astype(resolved)
        return self

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"

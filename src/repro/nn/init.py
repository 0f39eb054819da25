"""Weight initialization schemes.

The paper initializes the hashing head with Xavier initialization [Glorot &
Bengio 2010]; the hidden layers before a ReLU use Kaiming initialization
[He et al. 2015].
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # linear: (in, out)
        return shape[0], shape[1]
    raise ValueError(f"cannot infer fan for shape {shape}")


def xavier_uniform(
    shape: tuple[int, ...], rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    gen = as_generator(rng)
    fan_in, fan_out = _fan_in_out(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-bound, bound, size=shape)


def kaiming_normal(
    shape: tuple[int, ...], rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """He initialization: N(0, 2 / fan_in), appropriate before ReLU."""
    gen = as_generator(rng)
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return gen.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)

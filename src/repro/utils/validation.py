"""Argument validation helpers with error messages naming the offending value."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def check_array(
    x: object,
    name: str,
    ndim: int | None = None,
    shape: tuple[int | None, ...] | None = None,
    dtype: type | None = None,
) -> np.ndarray:
    """Coerce ``x`` to an ndarray and verify rank / shape constraints.

    ``shape`` entries of ``None`` match any extent.  Returns the coerced
    array so callers can use the validated value directly.
    """
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ShapeError(
                f"{name} must have rank {len(shape)}, got shape {arr.shape}"
            )
        for axis, want in enumerate(shape):
            if want is not None and arr.shape[axis] != want:
                raise ShapeError(
                    f"{name} axis {axis} must have size {want}, got {arr.shape[axis]}"
                )
    return arr


def check_positive(value: float, name: str, strict: bool = True) -> float:
    """Require a (strictly) positive scalar."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return float(value)


def check_in_range(
    value: float, name: str, low: float, high: float, inclusive: bool = True
) -> float:
    """Require ``low <= value <= high`` (or strict, if ``inclusive=False``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must lie in {bounds}, got {value}")
    return float(value)


def check_binary_codes(codes: object, name: str = "codes") -> np.ndarray:
    """Validate a ±1 hash-code matrix of shape (n, k).

    The check is two vectorized comparisons, ``x == 1`` or ``x == -1``
    (NaN fails both), into boolean buffers: this runs on every distance
    computation and evaluation, so no float temporary, sort or unique scan.
    """
    arr = check_array(codes, name, ndim=2, dtype=np.float64)
    ok = arr == 1.0
    ok |= arr == -1.0
    if not ok.all():
        bad = np.unique(arr[~ok][:64])[:8]
        raise ShapeError(f"{name} must contain only -1/+1, found values {bad}")
    return arr


def check_probability_rows(dist: object, name: str = "distributions") -> np.ndarray:
    """Validate a row-stochastic matrix (rows are probability distributions)."""
    arr = check_array(dist, name, ndim=2, dtype=np.float64)
    if np.any(arr < -1e-9):
        raise ShapeError(f"{name} has negative entries")
    sums = arr.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ShapeError(f"{name} rows must sum to 1, got sums in "
                         f"[{sums.min():.6f}, {sums.max():.6f}]")
    return arr

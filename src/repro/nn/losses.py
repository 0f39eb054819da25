"""Generic loss functions for the NN substrate.

Each loss returns ``(value, grad_wrt_input)`` so training loops can feed the
gradient straight into ``model.backward``.  The UHSCM-specific hashing losses
(Eq. 7–11) live in :mod:`repro.core.losses`; these two train the BGAN-style
baseline's discriminator and decoder.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    value = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return value, grad


def binary_cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Element-wise sigmoid BCE from logits (stable log-sum-exp form)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ShapeError(f"shape mismatch: {logits.shape} vs {targets.shape}")
    # loss = max(x, 0) - x*t + log(1 + exp(-|x|))
    value = float(
        np.mean(
            np.maximum(logits, 0)
            - logits * targets
            + np.log1p(np.exp(-np.abs(logits)))
        )
    )
    sig = np.empty_like(logits)
    pos = logits >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    sig[~pos] = e / (1.0 + e)
    grad = (sig - targets) / logits.size
    return value, grad

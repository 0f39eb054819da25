"""The hashing network H(x; W) (paper §3.2).

The paper's network is VGG19 with the first eighteen layers initialized
from ImageNet pretraining and the last replaced by a k-dim FC + tanh.  Here
the pretrained stem is frozen into a feature extractor (the simulated
pretrained encoder), and only an MLP hash head over its features trains; it
ends in a k-dim Xavier-initialized linear layer + tanh.  ``encode`` returns
binary ±1 codes via ``sign``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.parameter import resolve_dtype
from repro.nn.vgg import build_feature_hash_net
from repro.utils.mathops import sign

#: Feature extractor signature: raw NCHW images -> (n, feature_dim) array.
FeatureExtractor = Callable[[np.ndarray], np.ndarray]

_ENCODE_BATCH = 1024


class HashingNetwork:
    """An MLP hash head over a frozen feature extractor.

    ``mode`` accepts only ``"feature"``; the end-to-end conv mode was
    removed.
    """

    def __init__(
        self,
        n_bits: int,
        mode: str = "feature",
        feature_extractor: FeatureExtractor | None = None,
        feature_dim: int | None = None,
        hidden_dims: tuple[int, ...] = (256,),
        rng: int | np.random.Generator | None = 0,
        dtype: str | np.dtype = "float64",
    ) -> None:
        if mode != "feature":
            raise ConfigurationError(
                f"unknown mode {mode!r}: the conv mode was removed, and "
                f"'feature' is the only mode"
            )
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive: {n_bits}")
        if feature_extractor is None or feature_dim is None:
            raise ConfigurationError(
                "the hashing network requires feature_extractor and feature_dim"
            )
        self.n_bits = n_bits
        self.dtype = resolve_dtype(dtype)
        self.feature_extractor = feature_extractor
        self.net = build_feature_hash_net(
            n_bits, feature_dim, hidden_dims=hidden_dims, rng=rng
        )
        if self.dtype != np.dtype(np.float64):
            self.net.to(self.dtype)
        # Training reads only parameter gradients, so the first layer skips
        # its gradient w.r.t. the network input (one GEMM per step).
        self.net[0].needs_input_grad = False

    # -- training interface --------------------------------------------------

    def to(self, dtype: str | np.dtype) -> "HashingNetwork":
        """Cast the underlying net to the given training dtype."""
        self.dtype = resolve_dtype(dtype)
        self.net.to(self.dtype)
        return self

    def capture_cache(self):
        """Snapshot layer activations (see :meth:`Module.capture_cache`)."""
        return self.net.capture_cache()

    def restore_cache(self, snapshot) -> None:
        self.net.restore_cache(snapshot)

    def prepare_inputs(self, images: np.ndarray) -> np.ndarray:
        """Map raw images to the features the hash head consumes."""
        return self.feature_extractor(images)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Relaxed codes z in [-1, 1]^k for already-prepared inputs."""
        return self.net(inputs)

    def backward(self, grad_z: np.ndarray) -> None:
        """Accumulate parameter gradients for ``grad_z``; the gradient
        w.r.t. the network input is never formed."""
        self.net.backward(grad_z)

    def parameters(self):
        return self.net.parameters()

    def train(self) -> None:
        self.net.train(True)

    def eval(self) -> None:
        self.net.train(False)

    # -- inference -------------------------------------------------------------

    def relaxed_codes(self, images: np.ndarray) -> np.ndarray:
        """Eval-mode tanh outputs z for raw images, in the network's dtype."""
        return self._forward_batches(images, binary=False)

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Binary ±1 hash codes B = sign(z) for raw images, as float64."""
        return self._forward_batches(images, binary=True)

    def _forward_batches(self, images: np.ndarray, binary: bool) -> np.ndarray:
        """Forward ``images`` in eval mode 1,024 rows at a time into one
        preallocated ``(n, n_bits)`` array: each batch's ``z`` in the
        network's dtype, or its ``sign(z)`` in float64 when ``binary``.
        Each batch is cast on its own, so a memmapped corpus stays on disk."""
        images = np.asarray(images)
        if images.shape[0] == 0:
            raise NotFittedError("cannot encode an empty image batch")
        self.net.train(False)
        out = np.empty((images.shape[0], self.n_bits),
                       dtype=np.float64 if binary else self.dtype)
        for start in range(0, images.shape[0], _ENCODE_BATCH):
            batch = np.asarray(images[start : start + _ENCODE_BATCH],
                               dtype=self.dtype)
            z = self.net(self.prepare_inputs(batch))
            out[start : start + batch.shape[0]] = sign(z) if binary else z
        self.net.train(True)
        return out

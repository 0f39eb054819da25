"""The hashing network H(x; W) (paper §3.2).

Two operating modes mirror the paper's VGG19 setup on CPU:

- ``feature`` (default): an MLP hash head over *frozen pretrained backbone
  features* — the reproduction of "the first eighteen layers are initialized
  with pretrained VGG19" (the frozen stem is the simulated pretrained
  encoder, only the replaced top layers train);
- ``conv``: a true convolutional VGG-style network trained end-to-end on raw
  images (profiles ``tiny`` / ``small`` / ``vgg19``).

Both end in a k-dim Xavier-initialized linear layer + tanh, and both expose
``encode`` returning binary ±1 codes via ``sign``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.module import Module
from repro.nn.parameter import resolve_dtype
from repro.nn.vgg import VGGHashNet, build_feature_hash_net
from repro.utils.mathops import sign
from repro.utils.rng import as_generator

#: Feature extractor signature: raw NCHW images -> (n, feature_dim) array.
FeatureExtractor = Callable[[np.ndarray], np.ndarray]

_ENCODE_BATCH = 1024


class HashingNetwork:
    """Unified wrapper around the two hashing-network modes."""

    def __init__(
        self,
        n_bits: int,
        mode: str = "feature",
        feature_extractor: FeatureExtractor | None = None,
        feature_dim: int | None = None,
        image_size: int = 16,
        conv_profile: str = "tiny",
        hidden_dims: tuple[int, ...] = (256,),
        rng: int | np.random.Generator | None = 0,
        dtype: str | np.dtype = "float64",
    ) -> None:
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive: {n_bits}")
        gen = as_generator(rng)
        self.n_bits = n_bits
        self.mode = mode
        self.dtype = resolve_dtype(dtype)
        self.feature_extractor = feature_extractor
        self.feature_dim = feature_dim if mode == "feature" else None
        self.image_size = image_size if mode == "conv" else None
        self.conv_profile = conv_profile if mode == "conv" else None
        self.hidden_dims = tuple(hidden_dims)
        if mode == "feature":
            if feature_extractor is None or feature_dim is None:
                raise ConfigurationError(
                    "feature mode requires feature_extractor and feature_dim"
                )
            self.net: Module = build_feature_hash_net(
                n_bits, feature_dim, hidden_dims=hidden_dims, rng=gen
            )
        elif mode == "conv":
            self.net = VGGHashNet(
                n_bits,
                image_size=image_size,
                profile=conv_profile,
                hidden_dims=hidden_dims,
                rng=gen,
            )
        else:
            raise ConfigurationError(
                f"unknown mode {mode!r}; options: 'feature' or 'conv'"
            )
        if self.dtype != np.dtype(np.float64):
            self.net.to(self.dtype)
        # Training reads only parameter gradients, so the first layer skips
        # its gradient w.r.t. the network input (one GEMM per step).
        first = self.net[0] if mode == "feature" else self.net.stem[0]
        first.needs_input_grad = False

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
        """Map raw images to whatever the underlying net consumes."""
        if self.mode == "feature":
            assert self.feature_extractor is not None
            return self.feature_extractor(images)
        return images

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
        """Eval-mode tanh outputs z for raw images, batched into one
        preallocated ``(n, n_bits)`` array in the network's dtype.  Each
        batch is cast on its own, so a memmapped corpus stays on disk."""
        images = np.asarray(images)
        if images.shape[0] == 0:
            raise NotFittedError("cannot encode an empty image batch")
        self.net.train(False)
        out = np.empty((images.shape[0], self.n_bits), dtype=self.dtype)
        for start in range(0, images.shape[0], _ENCODE_BATCH):
            batch = np.asarray(images[start : start + _ENCODE_BATCH],
                               dtype=self.dtype)
            out[start : start + batch.shape[0]] = self.net(
                self.prepare_inputs(batch))
        self.net.train(True)
        return out

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Binary ±1 hash codes B = sign(z) for raw images."""
        return sign(self.relaxed_codes(images))

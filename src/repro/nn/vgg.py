"""The hash head of the paper's VGG19 hashing network.

The paper's hashing network is VGG19 with the final layer replaced by a
``k``-dimensional fully connected layer under a ``tanh`` activation (§3.2),
the first eighteen layers initialized from ImageNet pretraining.  This
reproduction keeps the pretrained stem frozen into the dataset's feature
extractor (see ``repro.datasets``) and trains an MLP hash head over its
features (:func:`build_feature_hash_net`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential, Tanh
from repro.nn.module import Module
from repro.utils.rng import as_generator


def build_feature_hash_net(
    n_bits: int,
    feature_dim: int,
    hidden_dims: tuple[int, ...] = (256,),
    batch_norm: bool = True,
    rng: int | np.random.Generator | None = None,
) -> Sequential:
    """MLP hash network over precomputed backbone features.

    This mirrors the paper's practice of initializing the conv stem from a
    pretrained VGG19: the (simulated) pretrained stem is frozen into the
    dataset's feature extractor and only the top layers train.  Ends in the
    paper's ``k``-dim Xavier-initialized linear layer + tanh.
    """
    if feature_dim <= 0 or n_bits <= 0:
        raise ConfigurationError(
            f"feature_dim and n_bits must be positive: ({feature_dim}, {n_bits})"
        )
    gen = as_generator(rng)
    layers: list[Module] = []
    in_dim = feature_dim
    for width in hidden_dims:
        layers.append(Linear(in_dim, width, init_scheme="kaiming", rng=gen))
        if batch_norm:
            layers.append(BatchNorm1d(width))
        layers.append(ReLU())
        in_dim = width
    layers.append(Linear(in_dim, n_bits, init_scheme="xavier", rng=gen))
    layers.append(Tanh())
    return Sequential(*layers)

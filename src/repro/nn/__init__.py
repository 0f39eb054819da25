"""A from-scratch numpy neural-network framework (the PyTorch substitute).

Provides a layer-wise backprop module system, the MLP hash head over
pretrained-backbone features, the SGD optimizer, and the losses of the
BGAN baseline — everything the paper's training loop (and the deep
baselines) need.
"""

from repro.nn import init
from repro.nn.layers import (
    BatchNorm1d,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.losses import binary_cross_entropy_with_logits, mse_loss
from repro.nn.module import Module
from repro.nn.optim import SGD, Optimizer
from repro.nn.parameter import Parameter
from repro.nn.vgg import build_feature_hash_net

__all__ = [
    "BatchNorm1d",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "binary_cross_entropy_with_logits",
    "build_feature_hash_net",
    "init",
    "mse_loss",
]

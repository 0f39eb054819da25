"""Neural-network layers."""

from repro.nn.layers.activations import ReLU, Sigmoid, Tanh
from repro.nn.layers.container import Sequential
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm1d

__all__ = [
    "BatchNorm1d",
    "Linear",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Tanh",
]

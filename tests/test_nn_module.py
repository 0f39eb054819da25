"""Tests for the Module base class: mode switching, params, buffers."""

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential
from repro.nn.module import Module
from repro.nn.parameter import Parameter


class TestModeSwitching:
    def test_train_eval_propagates_to_children(self):
        net = Sequential(Linear(2, 3, rng=0), Sequential(ReLU(), BatchNorm1d(3)))
        net.eval()
        assert all(not m.training for m in net._modules_recursive())
        net.train()
        assert all(m.training for m in net._modules_recursive())


class TestParameters:
    def test_num_parameters(self):
        net = Sequential(Linear(4, 3, rng=0))  # 4*3 weights + 3 bias
        assert net.num_parameters() == 15

    def test_zero_grad(self):
        net = Sequential(Linear(2, 2, rng=0))
        for p in net.parameters():
            p.grad[...] = 1.0
        net.zero_grad()
        assert all(np.all(p.grad == 0) for p in net.parameters())

    def test_parameter_repr_and_size(self):
        p = Parameter(np.zeros((2, 3)), name="w")
        assert p.size == 6
        assert "w" in repr(p)


class TestBuffers:
    def test_register_and_roundtrip(self):
        class WithBuffer(Module):
            def __init__(self):
                super().__init__()
                self.counter = self.register_buffer("counter", np.zeros(2))

            def forward(self, x):
                return x

            def backward(self, g):
                return g

        m = WithBuffer()
        m.counter += 5.0
        state = m.state_dict()
        assert "buf:0:counter" in state

        m2 = WithBuffer()
        m2.load_state_dict(state)
        np.testing.assert_array_equal(m2.counter, [5.0, 5.0])

    def test_batchnorm_running_stats_serialized(self, rng):
        bn = BatchNorm1d(3)
        bn(rng.normal(loc=4.0, size=(50, 3)))
        state = bn.state_dict()
        bn2 = BatchNorm1d(3)
        bn2.load_state_dict(state)
        np.testing.assert_array_equal(bn2.running_mean, bn.running_mean)
        np.testing.assert_array_equal(bn2.running_var, bn.running_var)

    def test_load_rejects_wrong_size(self):
        net = Sequential(Linear(2, 2, rng=0))
        with pytest.raises(ValueError):
            net.load_state_dict({})

    def test_load_rejects_wrong_shape(self):
        net = Sequential(Linear(2, 2, rng=0))
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_rejects_wrong_buffer_shape(self):
        bn = BatchNorm1d(6)
        state = bn.state_dict()
        state["buf:0:running_mean"] = np.ones(1)  # would broadcast to (6,)
        with pytest.raises(ValueError, match="running_mean"):
            bn.load_state_dict(state)
        np.testing.assert_array_equal(bn.running_mean, np.zeros(6))

    def test_rejected_state_leaves_parameters_untouched(self):
        net = Sequential(Linear(2, 3, rng=0), BatchNorm1d(3))
        before = net.state_dict()
        state = {key: value + 1.0 for key, value in before.items()}
        state["buf:2:running_var"] = np.ones((3, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)
        for key, value in net.state_dict().items():
            np.testing.assert_array_equal(value, before[key])


class TestAbstractContract:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(np.zeros(2))

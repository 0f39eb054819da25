"""Layer tests: forward shapes/semantics + numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn.layers import (
    BatchNorm1d,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from tests.conftest import numerical_gradient


def layer_input_grad_check(layer, x, atol=1e-6):
    """Check backward's input gradient against central differences."""
    def scalar(xx):
        return float(layer(xx).sum())

    layer(x)
    grad = layer.backward(np.ones_like(np.atleast_1d(layer(x))))
    num = numerical_gradient(scalar, x.copy())
    np.testing.assert_allclose(grad, num, atol=atol)


def layer_param_grad_check(layer, x, atol=1e-6):
    """Check accumulated parameter gradients against central differences."""
    layer.zero_grad()
    out = layer(x)
    layer.backward(np.ones_like(out))
    for p in layer.parameters():
        def scalar(_unused, p=p):
            return float(layer(x).sum())

        num = numerical_gradient(lambda _: scalar(None), p.data)
        np.testing.assert_allclose(p.grad, num, atol=atol,
                                   err_msg=f"param {p.name}")


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng=0)
        out = layer(rng.normal(size=(4, 5)))
        assert out.shape == (4, 3)

    def test_input_gradient(self, rng):
        layer_input_grad_check(Linear(4, 3, rng=0), rng.normal(size=(3, 4)))

    def test_param_gradient(self, rng):
        layer_param_grad_check(Linear(3, 2, rng=0), rng.normal(size=(2, 3)))

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_shape_validation(self, rng):
        with pytest.raises(ShapeError):
            Linear(3, 2, rng=0)(rng.normal(size=(2, 4)))

    def test_bad_init_scheme(self):
        with pytest.raises(ValueError):
            Linear(3, 2, init_scheme="nope")


class TestActivations:
    @pytest.mark.parametrize("cls", [ReLU, Tanh, Sigmoid])
    def test_gradient(self, cls, rng):
        # Offset away from ReLU's kink at zero for clean finite differences.
        x = rng.normal(size=(3, 4)) + 0.05 * np.sign(rng.normal(size=(3, 4)))
        layer_input_grad_check(cls(), x, atol=1e-5)

    def test_relu_clamps(self):
        out = ReLU()(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_tanh_range(self, rng):
        out = Tanh()(rng.normal(size=(5, 5)) * 10)
        assert np.all(np.abs(out) <= 1.0)

    def test_sigmoid_stable_extremes(self):
        out = Sigmoid()(np.array([[-1e3, 1e3]]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        layer = BatchNorm1d(4)
        out = layer(rng.normal(loc=5.0, scale=3.0, size=(64, 4)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1d(3)
        for _ in range(50):
            layer(rng.normal(loc=2.0, size=(32, 3)))
        layer.train(False)
        out = layer(np.full((4, 3), 2.0))
        assert np.abs(out).max() < 0.5

    def test_gradient(self, rng):
        layer = BatchNorm1d(3)
        x = rng.normal(size=(6, 3))

        def scalar(xx):
            return float((layer(xx) ** 2).sum())

        out = layer(x)
        layer.backward(2 * out)
        grad = layer.backward  # computed above; recompute explicitly:
        layer.zero_grad()
        out = layer(x)
        g = layer.backward(2 * out)
        num = numerical_gradient(scalar, x.copy())
        np.testing.assert_allclose(g, num, atol=1e-5)

    def test_no_weight_decay_on_affine(self):
        layer = BatchNorm1d(2)
        assert all(not p.weight_decay_enabled for p in layer.parameters())


class TestContainers:
    def test_sequential_forward_backward(self, rng):
        net = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        x = rng.normal(size=(3, 4))
        layer_input_grad_check(net, x, atol=1e-5)

    def test_indexing(self):
        net = Sequential(ReLU(), Tanh())
        assert len(net) == 2
        assert isinstance(net[1], Tanh)

    def test_state_dict_roundtrip(self, rng):
        net = Sequential(Linear(3, 4, rng=0), Linear(4, 2, rng=1))
        x = rng.normal(size=(2, 3))
        before = net(x)
        state = net.state_dict()
        net2 = Sequential(Linear(3, 4, rng=5), Linear(4, 2, rng=6))
        net2.load_state_dict(state)
        np.testing.assert_allclose(net2(x), before)

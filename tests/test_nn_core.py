"""Tests for nn init, the optimizer, losses, and the feature hash net."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import init
from repro.nn.losses import binary_cross_entropy_with_logits, mse_loss
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter
from repro.nn.vgg import build_feature_hash_net
from tests.conftest import numerical_gradient


class TestInit:
    def test_xavier_uniform_bound(self):
        w = init.xavier_uniform((100, 100), rng=0)
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound

    def test_kaiming_std(self):
        w = init.kaiming_normal((1000, 50), rng=0)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 1000), rel=0.1)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            init.xavier_uniform((3,))
        with pytest.raises(ValueError):  # conv weights: no layer uses them
            init.kaiming_normal((8, 4, 3, 3))


class TestOptimizers:
    def _quadratic_params(self):
        return [Parameter(np.array([5.0, -3.0]), name="w")]

    def test_sgd_converges_on_quadratic(self):
        params = self._quadratic_params()
        opt = SGD(params, learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(300):
            opt.zero_grad()
            params[0].grad[...] = 2 * params[0].data
            opt.step()
        assert np.abs(params[0].data).max() < 1e-3

    def test_weight_decay_shrinks(self):
        params = [Parameter(np.array([1.0]), name="w")]
        opt = SGD(params, learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        opt.step()  # zero gradient: only decay acts
        assert params[0].data[0] < 1.0

    def test_weight_decay_respects_flag(self):
        p = Parameter(np.array([1.0]), name="bn", weight_decay_enabled=False)
        opt = SGD([p], learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(1.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], learning_rate=0.1)

    @pytest.mark.parametrize("kwargs", [{"learning_rate": 0}, {"momentum": 1.0}])
    def test_bad_hyperparams(self, kwargs):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], **{"learning_rate": 0.1, **kwargs})


class TestLosses:
    def test_mse_value_and_gradient(self, rng):
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        value, grad = mse_loss(pred, target)
        assert value == pytest.approx(((pred - target) ** 2).mean())
        num = numerical_gradient(lambda p: mse_loss(p, target)[0], pred.copy())
        np.testing.assert_allclose(grad, num, atol=1e-7)

    def test_bce_gradient(self, rng):
        logits = rng.normal(size=(3, 2))
        targets = (rng.random((3, 2)) > 0.5).astype(float)
        _, grad = binary_cross_entropy_with_logits(logits, targets)
        num = numerical_gradient(
            lambda lg: binary_cross_entropy_with_logits(lg, targets)[0],
            logits.copy(),
        )
        np.testing.assert_allclose(grad, num, atol=1e-7)

    def test_bce_stable_extremes(self):
        value, _ = binary_cross_entropy_with_logits(
            np.array([[1e4, -1e4]]), np.array([[1.0, 0.0]])
        )
        assert np.isfinite(value)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestVGG:
    """The hash head that replaces VGG19's last layer (§3.2)."""

    def test_feature_hash_net(self, rng):
        net = build_feature_hash_net(16, feature_dim=10, rng=0)
        out = net(rng.normal(size=(4, 10)))
        assert out.shape == (4, 16)
        assert np.all(np.abs(out) <= 1.0)

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            build_feature_hash_net(0, feature_dim=10)
        with pytest.raises(ConfigurationError):
            build_feature_hash_net(8, feature_dim=0)

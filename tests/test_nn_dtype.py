"""Tests for the nn dtype policy (``Module.to``) and activation-cache slots
(``capture_cache``/``restore_cache``) introduced by the vectorized training
engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn import BatchNorm1d, Linear, Sequential, Tanh
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter, resolve_dtype
from repro.nn.vgg import build_feature_hash_net


def _mlp(rng_seed=0, dtype=None):
    net = Sequential(
        Linear(6, 5, rng=rng_seed),
        Tanh(),
        Linear(5, 3, rng=rng_seed + 1),
    )
    if dtype is not None:
        net.to(dtype)
    return net


class TestResolveDtype:
    def test_accepts_names_and_dtypes(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype("float64") == np.float64
        assert resolve_dtype(np.float32) == np.float32
        assert resolve_dtype(None) == np.float64

    def test_rejects_unsupported(self):
        for bad in ("float16", "int32", np.int64):
            with pytest.raises(ConfigurationError):
                resolve_dtype(bad)


class TestParameterDtype:
    def test_default_is_float64(self):
        p = Parameter(np.ones((2, 2), dtype=np.float32))
        assert p.dtype == np.float64

    def test_to_casts_data_and_grad(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 1.0
        p.to("float32")
        assert p.data.dtype == p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, 1.0)


class TestModuleTo:
    def test_casts_parameters_and_outputs(self):
        net = _mlp(dtype="float32")
        assert all(p.dtype == np.float32 for p in net.parameters())
        out = net(np.ones((4, 6), dtype=np.float64))
        assert out.dtype == np.float32
        grad_in = net.backward(np.ones_like(out))
        assert grad_in.dtype == np.float32
        assert all(p.grad.dtype == np.float32 for p in net.parameters())

    def test_batchnorm_buffers_stay_aliased(self):
        bn = BatchNorm1d(4)
        bn.to("float32")
        assert bn.running_mean.dtype == np.float32
        assert bn.running_mean is bn._buffers["running_mean"]
        assert bn.running_var is bn._buffers["running_var"]
        bn(np.random.default_rng(0).normal(size=(8, 4)))
        # The in-place running-stat update must hit the registered buffer.
        assert bn._buffers["running_mean"].any()

    def test_feature_net_float32_state_dict_roundtrip(self):
        net = build_feature_hash_net(4, 6, hidden_dims=(5,), rng=0)
        net.to("float32")
        state = net.state_dict()
        assert all(v.dtype == np.float32 for v in state.values())
        net2 = build_feature_hash_net(4, 6, hidden_dims=(5,), rng=1)
        net2.to("float32")
        net2.load_state_dict(state)
        x = np.random.default_rng(2).normal(size=(3, 6))
        net.eval(), net2.eval()
        np.testing.assert_array_equal(net(x), net2(x))

    def test_float32_forward_close_to_float64(self):
        net64 = _mlp(rng_seed=3)
        net32 = _mlp(rng_seed=3, dtype="float32")
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_allclose(net32(x), net64(x), atol=1e-6)

    def test_sgd_after_cast_keeps_dtype(self):
        net = _mlp(dtype="float32")
        opt = SGD(net.parameters(), learning_rate=0.1)
        out = net(np.ones((4, 6)))
        net.backward(np.ones_like(out))
        opt.step()
        assert all(p.data.dtype == np.float32 for p in net.parameters())
        assert all(v.dtype == np.float32 for v in opt._velocity)


class TestCaptureCache:
    def _grads(self, net):
        return [p.grad.copy() for p in net.parameters()]

    def test_two_forwards_two_backwards(self):
        """backward(view2) then restore + backward(view1) must accumulate
        the same gradients as the seed's re-forward of view1."""
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=(5, 6))
        x2 = rng.normal(size=(5, 6))
        g1 = rng.normal(size=(5, 3))
        g2 = rng.normal(size=(5, 3))

        captured = _mlp(rng_seed=7)
        captured.zero_grad()
        captured(x1)
        snapshot = captured.capture_cache()
        captured(x2)
        captured.backward(g2)
        captured.restore_cache(snapshot)
        captured.backward(g1)

        reforward = _mlp(rng_seed=7)
        reforward.zero_grad()
        reforward(x2)
        reforward.backward(g2)
        reforward(x1)
        reforward.backward(g1)

        for got, want in zip(self._grads(captured), self._grads(reforward)):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_restore_rejects_mismatched_snapshot(self):
        net = _mlp()
        with pytest.raises(ValueError):
            net.restore_cache([{}])

"""Bit-identity of the branch-free training step and the tiled evaluation.

The ``_reference_*`` functions below are the earlier ``np.where`` selects,
allocating BatchNorm, loss chains, float64 stable-argsort ranking and the
untiled one-matrix ``evaluate_codes``, frozen as oracles.  Training with
them patched in must leave a byte-identical ``state_dict`` and an equal
``TrainHistory``; evaluation must give equal MAP, P@N and PR arrays.  Do
not "improve" the oracles.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core import trainer as trainer_module
from repro.core.hashing_network import HashingNetwork
from repro.core.losses import (
    _EPS,
    LossBreakdown,
    _check_q,
    _check_z,
    _cib_setup,
    _cib_terms,
    _contrastive_masks,
    _normalize_rows,
)
from repro.core.trainer import UHSCMTrainer
from repro.errors import ShapeError
from repro.nn.layers import BatchNorm1d, BatchNorm2d, ReLU
from repro.nn.layers.norm import _BatchNorm
from repro.retrieval import (
    evaluate_codes,
    hamming,
    hamming_distance_matrix,
    mean_average_precision,
    mean_average_precision_from_distances,
    pr_curve_hamming,
    precision_at_n,
    relevance_matrix,
)
from repro.retrieval.metrics import (
    _MIN_TILE_ROWS,
    _TILE_PAIR_BYTES,
    _average_precisions,
)

# -- reference layers ----------------------------------------------------------


def _reference_relu_forward(self, x):
    x = np.asarray(x, dtype=self.dtype)
    self._mask = x > 0
    return np.where(self._mask, x, 0.0)


def _reference_relu_backward(self, grad_output):
    return np.where(self._mask, np.asarray(grad_output, dtype=self.dtype), 0.0)


def _reference_batchnorm_forward(self, x):
    x = np.asarray(x, dtype=self.dtype)
    self._check_input(x)
    bshape = self._shape_for_broadcast
    if self.training:
        mean = x.mean(axis=self._reduce_axes)
        centered = x - mean.reshape(bshape)
        var = (centered * centered).mean(axis=self._reduce_axes)
        m = self.momentum
        self.running_mean *= 1 - m
        self.running_mean += m * mean
        self.running_var *= 1 - m
        self.running_var += m * var
    else:
        mean, var = self.running_mean, self.running_var
        centered = x - mean.reshape(bshape)
    inv_std = 1.0 / np.sqrt(var + self.eps)
    x_hat = centered * inv_std.reshape(bshape)
    if self.training:
        self._cache = (x_hat, inv_std, centered)
    out = x_hat * self.gamma.data.reshape(bshape)
    out += self.beta.data.reshape(bshape)
    return out


def _reference_batchnorm_backward(self, grad_output):
    x_hat, inv_std, _ = self._cache
    bshape = self._shape_for_broadcast
    grad = np.asarray(grad_output, dtype=self.dtype)
    axes = self._reduce_axes
    m = float(np.prod([x_hat.shape[a] for a in axes]))
    self.gamma.grad += (grad * x_hat).sum(axis=axes)
    self.beta.grad += grad.sum(axis=axes)
    grad_x_hat = grad * self.gamma.data.reshape(bshape)
    term2 = grad_x_hat.sum(axis=axes, keepdims=True) / m
    term3 = x_hat * ((grad_x_hat * x_hat).sum(axis=axes, keepdims=True) / m)
    grad_x_hat -= term2
    grad_x_hat -= term3
    grad_x_hat *= inv_std.reshape(bshape)
    return grad_x_hat


# -- reference loss chain ------------------------------------------------------


def _reference_cosine_grad_to_z(z_hat, norms, grad_h):
    g_zhat = (grad_h + grad_h.T) @ z_hat
    radial = (g_zhat * z_hat).sum(axis=1, keepdims=True)
    return (g_zhat - radial * z_hat) / norms


def _reference_similarity_terms(h, q):
    t = h.shape[0]
    diff = h - q
    loss = float((diff**2).mean())
    return loss, 2.0 * diff / (t * t)


def _reference_mcl_terms(h, q, lam, gamma, weight=1.0):
    t = h.shape[0]
    pos_mask, neg_mask = _contrastive_masks(q, lam)
    exp_h = h * (1.0 / gamma)
    exp_h -= exp_h.max()
    np.exp(exp_h, out=exp_h)
    neg_sum = (exp_h * neg_mask).sum(axis=1)
    pos_count = pos_mask.sum(axis=1)
    active = np.flatnonzero((pos_count > 0) & (neg_sum > 0))
    if active.size == 0:
        return 0.0, None
    if active.size == t:
        exp_a, pos_a, neg_a, act_neg_sum = exp_h, pos_mask, neg_mask, neg_sum
        inv_psi = 1.0 / pos_count
    else:
        exp_a = exp_h[active]
        pos_a = pos_mask[active]
        neg_a = neg_mask[active]
        act_neg_sum = neg_sum[active]
        inv_psi = 1.0 / pos_count[active]
    inv_psi = inv_psi.astype(h.dtype, copy=False)
    denom = exp_a + act_neg_sum[:, None]
    r = exp_a / denom
    row_loss = (-np.log(np.maximum(r, _EPS)) * pos_a).sum(axis=1)
    loss = float((row_loss * inv_psi).sum()) / t
    w = inv_psi[:, None] * (weight / (gamma * t))
    grad_rows = np.where(pos_a, w * (r - 1.0), 0.0)
    inv_denom_sum = ((1.0 / denom) * pos_a).sum(axis=1, keepdims=True)
    grad_rows += np.where(neg_a, w * inv_denom_sum * exp_a, 0.0)
    if active.size == t:
        return loss, grad_rows
    grad_h = np.zeros_like(h)
    grad_h[active] = grad_rows
    return loss, grad_h


def _reference_quantization_loss(z):
    z = _check_z(z)
    t = z.shape[0]
    one = z.dtype.type(1.0)
    diff = z - np.where(z > 0, one, -one)
    loss = float((diff**2).sum() / t)
    return loss, 2.0 * diff / t


def _reference_uhscm_objective(z, q, alpha, beta, gamma, lam):
    z = _check_z(z)
    t = z.shape[0]
    q = _check_q(q, t, z.dtype)
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T
    ls, grad_h = _reference_similarity_terms(h, q)
    lc = 0.0
    if alpha > 0:
        lc, grad_h_c = _reference_mcl_terms(h, q, lam, gamma, weight=alpha)
        if grad_h_c is not None:
            grad_h += grad_h_c
    lq, grad_q = _reference_quantization_loss(z)
    total = ls + alpha * lc + beta * lq
    grad = _reference_cosine_grad_to_z(z_hat, norms, grad_h) + beta * grad_q
    breakdown = LossBreakdown(
        total=total, similarity=ls, contrastive=lc, quantization=lq
    )
    return breakdown, grad


def _reference_cib_objective(z1, z2, q, alpha, beta, gamma):
    z_hat, norms, h, exp_h = _cib_setup(z1, z2, gamma)
    t = h.shape[0] // 2
    q = _check_q(q, t, h.dtype)
    if alpha > 0:
        jc, grad_h = _cib_terms(exp_h, gamma, weight=alpha)
    else:
        jc, grad_h = 0.0, np.zeros_like(h)
    ls, grad_h_s = _reference_similarity_terms(h[:t, :t], q)
    grad_h[:t, :t] += grad_h_s
    grad_z = _reference_cosine_grad_to_z(z_hat, norms, grad_h)
    lq, grad_q = _reference_quantization_loss(np.asarray(z1))
    grad_z1 = grad_z[:t] + beta * grad_q
    breakdown = LossBreakdown(
        total=ls + alpha * jc + beta * lq,
        similarity=ls,
        contrastive=jc,
        quantization=lq,
    )
    return breakdown, grad_z1, grad_z[t:]


# -- reference ranking ---------------------------------------------------------


def _reference_average_precision(rel, top_n):
    rel = np.asarray(rel, dtype=np.float64)[:top_n]
    n_rel = rel.sum()
    if n_rel == 0:
        return 0.0
    cum_precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((cum_precision * rel).sum() / n_rel)


def _reference_map_from_distances(distances, relevance, top_n):
    order = np.argsort(distances, axis=1, kind="stable")
    ranked = np.take_along_axis(relevance.astype(np.float64), order, axis=1)
    return float(np.mean([_reference_average_precision(r, top_n)
                          for r in ranked]))


def _reference_precision_at_n(distances, relevance, points):
    order = np.argsort(distances, axis=1, kind="stable")[:, :max(points)]
    ranked = np.take_along_axis(relevance.astype(np.float64), order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    return {n: float((cum[:, n - 1] / n).mean()) for n in points}


def _reference_pr_arrays(query_codes, db_codes, relevance):
    distances = hamming_distance_matrix(query_codes, db_codes).astype(np.int64)
    k = query_codes.shape[1]
    rel = relevance.astype(bool)
    bins = np.arange(k + 2)
    relevant_cum = np.cumsum(
        np.histogram(distances[rel], bins=bins)[0]).astype(np.float64)
    all_cum = np.cumsum(np.histogram(distances, bins=bins)[0]).astype(np.float64)
    precision = np.divide(relevant_cum, all_cum,
                          out=np.zeros_like(relevant_cum), where=all_cum > 0)
    return precision, relevant_cum / float(rel.sum())


def _reference_relevance(query_labels, db_labels):
    return (np.asarray(query_labels).astype(np.int64)
            @ np.asarray(db_labels).astype(np.int64).T) > 0


def _reference_evaluate_codes(query_codes, db_codes, query_labels, db_labels,
                              top_n, pn_points):
    """The untiled evaluate_codes: one whole relevance matrix, one float64
    Hamming matrix ranked once on uint8/uint16 keys for MAP and P@N, and
    the same matrix counted for the PR curve.  Returns (MAP, P@N,
    PR precision, PR recall)."""
    relevance = _reference_relevance(query_labels, db_labels)
    distances = hamming_distance_matrix(query_codes, db_codes)
    keys = distances.astype(np.uint8 if distances.max() <= 255 else np.uint16)
    n_db = db_codes.shape[0]
    points = tuple(p for p in pn_points if p <= n_db)
    if not points and pn_points:
        points = (n_db,)
    top_n = min(top_n, n_db)
    order = np.argsort(keys, axis=1, kind="stable")
    ranked = np.take_along_axis(relevance, order[:, :max((top_n, *points))],
                                axis=1)
    rel = ranked[:, :top_n].astype(np.float64)
    n_rel = rel.sum(axis=1)
    cum_precision = np.cumsum(rel, axis=1)
    cum_precision /= np.arange(1, rel.shape[1] + 1)
    cum_precision *= rel
    aps = np.zeros_like(n_rel)
    np.divide(cum_precision.sum(axis=1), n_rel, out=aps, where=n_rel != 0)
    cum = np.cumsum(ranked.astype(np.float64), axis=1)
    pn = {n: float((cum[:, n - 1] / n).mean()) for n in points}
    k = query_codes.shape[1]
    counts = distances.astype(np.intp)
    relevant_cum = np.cumsum(
        np.bincount(counts[relevance], minlength=k + 1)).astype(np.float64)
    all_cum = np.cumsum(
        np.bincount(counts.ravel(), minlength=k + 1)).astype(np.float64)
    precision = np.divide(relevant_cum, all_cum,
                          out=np.zeros_like(relevant_cum), where=all_cum > 0)
    recall = relevant_cum / float(np.count_nonzero(relevance))
    return float(np.mean(aps)), pn, precision, recall


# -- helpers -------------------------------------------------------------------


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _train(contrastive: str, dtype: str, lam: float = 0.5):
    rng = np.random.default_rng(11)
    features = rng.normal(size=(300, 24))
    unit = features / np.linalg.norm(features, axis=1, keepdims=True)
    q = np.clip(unit @ unit.T, 0.0, 1.0)
    config = UHSCMConfig(
        n_bits=32, lam=lam, seed=4,
        train=TrainConfig(batch_size=64, epochs=3, dtype=dtype),
    )
    network = HashingNetwork(
        32, mode="feature", feature_extractor=lambda x: x, feature_dim=24,
        hidden_dims=(48,), rng=3, dtype=dtype,
    )
    history = UHSCMTrainer(network, config, contrastive=contrastive).fit(
        features, q)
    return network.net.state_dict(), history


def _tie_heavy(n_query: int, n_db: int, bits: int, seed: int):
    """Clustered codes: at most ``bits + 1`` distinct Hamming distances
    over thousands of database rows, so ties decide most of the ranking."""
    rng = np.random.default_rng(seed)
    centers = np.where(rng.random((6, bits)) < 0.5, -1.0, 1.0)
    labels_q = rng.integers(0, 6, n_query)
    labels_db = rng.integers(0, 6, n_db)

    def draw(labels):
        codes = centers[labels].copy()
        codes[rng.random(codes.shape) < 0.25] *= -1.0
        return codes

    one_hot = np.eye(6)
    # A second label shared by half the rows makes relevance cut across
    # clusters, so relevant and irrelevant items interleave in the ranking.
    extra_q = (rng.random((n_query, 1)) < 0.5).astype(float)
    extra_db = (rng.random((n_db, 1)) < 0.5).astype(float)
    return (draw(labels_q), draw(labels_db),
            np.hstack([one_hot[labels_q], extra_q]),
            np.hstack([one_hot[labels_db], extra_db]))


# -- training ------------------------------------------------------------------


class TestTrainingBitIdentity:
    # lam 0.1 gives every image positives and negatives (the mcl fast path
    # over whole matrices); at 0.5 some images have no positive, so the mcl
    # terms run on the active rows only.
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("contrastive, lam",
                             [("mcl", 0.1), ("mcl", 0.5), ("cib", 0.5)])
    def test_state_dict_and_history_match_reference(
        self, monkeypatch, contrastive, lam, dtype
    ):
        state, history = _train(contrastive, dtype, lam)
        with monkeypatch.context() as patch:
            patch.setattr(ReLU, "forward", _reference_relu_forward)
            patch.setattr(ReLU, "backward", _reference_relu_backward)
            patch.setattr(_BatchNorm, "forward", _reference_batchnorm_forward)
            patch.setattr(_BatchNorm, "backward",
                          _reference_batchnorm_backward)
            patch.setattr(trainer_module, "uhscm_objective",
                          _reference_uhscm_objective)
            patch.setattr(trainer_module, "cib_objective",
                          _reference_cib_objective)
            ref_state, ref_history = _train(contrastive, dtype, lam)
        assert state.keys() == ref_state.keys()
        for key in state:
            assert _same_bytes(state[key], ref_state[key]), key
        assert history == ref_history
        assert sum(history.batches) == 15


def _batchnorm_run(shape, dtype):
    """One training forward/backward, then an eval forward, of a BatchNorm
    layer; returns every output and piece of state."""
    rng = np.random.default_rng(5)
    x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
    grad = rng.normal(size=shape).astype(dtype)
    layer = (BatchNorm1d if len(shape) == 2 else BatchNorm2d)(shape[1])
    layer.to(dtype)
    layer.gamma.data[...] = rng.normal(size=shape[1])
    layer.beta.data[...] = rng.normal(size=shape[1])
    out = layer.forward(x)
    grad_x = layer.backward(grad)
    layer.eval()
    return [out, grad_x, layer.forward(x), layer.gamma.grad, layer.beta.grad,
            layer.running_mean, layer.running_var]


class TestBatchNormBitIdentity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(64, 12), (8, 5, 3, 4)])
    def test_forward_backward_match_reference(self, monkeypatch, shape, dtype):
        results = _batchnorm_run(shape, dtype)
        with monkeypatch.context() as patch:
            patch.setattr(_BatchNorm, "forward", _reference_batchnorm_forward)
            patch.setattr(_BatchNorm, "backward",
                          _reference_batchnorm_backward)
            expected = _batchnorm_run(shape, dtype)
        for got, want in zip(results, expected):
            assert _same_bytes(got, want)


class TestReLUSelects:
    SPECIALS = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                         1.5, -1.5, 5e-324, -5e-324])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_where_byte_for_byte(self, dtype):
        relu = ReLU().to(dtype)
        rng = np.random.default_rng(0)
        # Every length up to 70 (and odd offsets) so numpy's SIMD body and
        # its scalar tail both see -0.0 and NaN.
        for n in range(1, 71):
            base = rng.choice(self.SPECIALS.astype(dtype), size=n + 3)
            for x in (base[:n], base[3:], base[::2]):
                expected = np.where(x > 0, x, dtype(0.0))
                assert _same_bytes(relu.forward(x), expected), (n, x)
        x = rng.choice(self.SPECIALS.astype(dtype), size=(37, 29))
        assert _same_bytes(relu.forward(x), np.where(x > 0, x, dtype(0.0)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_matches_where_on_finite_gradients(self, dtype):
        relu = ReLU().to(dtype)
        rng = np.random.default_rng(1)
        x = rng.choice(self.SPECIALS.astype(dtype), size=(41, 33))
        grad = rng.normal(size=x.shape).astype(dtype)
        grad[rng.random(x.shape) < 0.1] = 0.0
        relu.forward(x)
        expected = np.where(x > 0, grad, dtype(0.0))
        assert _same_bytes(relu.backward(grad), expected)

    def test_backward_nonfinite_gradient_is_nan_where_masked(self):
        relu = ReLU()
        relu.forward(np.array([-1.0, 2.0, -3.0]))
        with np.errstate(invalid="ignore"):  # 0 * inf
            out = relu.backward(np.array([np.inf, np.inf, 1.0]))
        assert np.isnan(out[0]) and out[1] == np.inf
        assert _same_bytes(out[2:], np.array([0.0]))


# -- evaluation ----------------------------------------------------------------


class TestEvaluationBitIdentity:
    @pytest.mark.parametrize("bits", [16, 64, 128])
    def test_evaluate_codes_matches_reference(self, bits):
        q, db, lq, ldb = _tie_heavy(40, 9000, bits, seed=bits)
        points = (100, 300, 1000, 8500)
        report = evaluate_codes(q, db, lq, ldb, top_n=5000, pn_points=points)
        distances = hamming_distance_matrix(q, db)
        relevance = _reference_relevance(lq, ldb)
        assert report.map == _reference_map_from_distances(
            distances, relevance, 5000)
        assert report.precision_at_n == _reference_precision_at_n(
            distances, relevance, points)
        precision, recall = _reference_pr_arrays(q, db, relevance)
        assert _same_bytes(report.pr_curve.precision, precision)
        assert _same_bytes(report.pr_curve.recall, recall)

    @pytest.mark.parametrize("depth", [1, 7, 5000, 9000])
    def test_per_query_ap_matches_one_dimensional_sum(self, depth):
        # The MAP sums 2-D rows; each row must round exactly as the 1-D
        # reference sum does (a mean of APs hides last-bit differences, so
        # compare the APs themselves).
        q, db, lq, ldb = _tie_heavy(40, 9000, 64, seed=depth)
        relevance = relevance_matrix(lq, ldb)
        order = np.argsort(hamming_distance_matrix(q, db), axis=1,
                           kind="stable")
        ranked = np.take_along_axis(relevance, order, axis=1)
        expected = np.array([_reference_average_precision(row, depth)
                             for row in ranked])
        assert _same_bytes(_average_precisions(ranked[:, :depth]), expected)

    def test_map_depth_beyond_summation_block(self):
        # Rows longer than numpy's 8192-element buffer: the per-row sums of
        # the 2-D MAP still match the 1-D reference.
        q, db, lq, ldb = _tie_heavy(12, 9000, 64, seed=5)
        report = evaluate_codes(q, db, lq, ldb, top_n=9000, pn_points=())
        assert report.map == _reference_map_from_distances(
            hamming_distance_matrix(q, db), _reference_relevance(lq, ldb),
            9000)
        assert report.precision_at_n == {}

    def test_relevance_matches_integer_product(self):
        rng = np.random.default_rng(2)
        lq = rng.integers(0, 3, size=(30, 7)).astype(float)
        ldb = rng.integers(0, 3, size=(50, 7)).astype(float)
        lq[0, 0] = 0.7  # truncates to 0, as the int64 cast did
        np.testing.assert_array_equal(relevance_matrix(lq, ldb),
                                      _reference_relevance(lq, ldb))

    # No cast may overflow on the way to integer keys (numpy warns).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["fractional", "negative", "large"])
    def test_distance_functions_keep_float_order(self, kind):
        rng = np.random.default_rng(3)
        distances = rng.integers(0, 5, size=(20, 400)).astype(np.float64)
        if kind == "fractional":
            distances += rng.choice([0.0, 0.25, 0.5], size=distances.shape)
        elif kind == "negative":
            distances -= 2.0
        else:
            distances *= 20000.0
        relevance = rng.random(distances.shape) < 0.3
        for top_n in (1, 50, 400, 1000):
            assert mean_average_precision_from_distances(
                distances, relevance, top_n) == _reference_map_from_distances(
                distances, relevance, top_n)
        points = (1, 10, 400)
        assert precision_at_n(distances, relevance, points) == (
            _reference_precision_at_n(distances, relevance, points))

    def test_distance_functions_on_graded_relevance(self):
        rng = np.random.default_rng(4)
        distances = rng.integers(0, 9, size=(15, 300)).astype(np.float64)
        relevance = rng.random(distances.shape)
        assert mean_average_precision_from_distances(
            distances, relevance, 100) == _reference_map_from_distances(
            distances, relevance, 100)
        assert precision_at_n(distances, relevance, (5, 300)) == (
            _reference_precision_at_n(distances, relevance, (5, 300)))

    def test_pr_curve_hamming_matches_reference(self):
        q, db, lq, ldb = _tie_heavy(25, 700, 32, seed=6)
        relevance = relevance_matrix(lq, ldb)
        curve = pr_curve_hamming(q, db, relevance)
        precision, recall = _reference_pr_arrays(q, db, relevance)
        assert _same_bytes(curve.precision, precision)
        assert _same_bytes(curve.recall, recall)


def _same_report(report, expected) -> bool:
    map_, pn, precision, recall = expected
    return (report.map == map_ and report.precision_at_n == pn
            and _same_bytes(report.pr_curve.precision, precision)
            and _same_bytes(report.pr_curve.recall, recall))


@pytest.fixture
def small_tiles(monkeypatch):
    """Shrink the tile budget to nothing: every evaluation tile is the
    16-row floor, and the distance kernel runs one row at a time."""
    monkeypatch.setattr(hamming, "TILE_BYTES", 1)
    return _MIN_TILE_ROWS


class TestEvaluationTiles:
    POINTS = (100, 300, 1000, 2500)

    @pytest.mark.parametrize("tiny_budget", [False, True])
    @pytest.mark.parametrize("bits", [16, 24, 32, 48, 64, 128])
    def test_report_matches_untiled_oracle(self, monkeypatch, bits,
                                           tiny_budget):
        # Multi-hot labels (a cluster plus a shared extra label) and heavy
        # ties; the tiny budget splits the 40 queries into 16, 16 and 8.
        if tiny_budget:
            monkeypatch.setattr(hamming, "TILE_BYTES", 1)
        q, db, lq, ldb = _tie_heavy(40, 3000, bits, seed=bits)
        expected = _reference_evaluate_codes(q, db, lq, ldb, 2000,
                                             self.POINTS)
        report = evaluate_codes(q, db, lq, ldb, top_n=2000,
                                pn_points=self.POINTS)
        assert _same_report(report, expected)
        relevance = relevance_matrix(lq, ldb)
        assert mean_average_precision(q, db, relevance, 2000) == expected[0]
        curve = pr_curve_hamming(q, db, relevance)
        assert _same_bytes(curve.precision, expected[2])
        assert _same_bytes(curve.recall, expected[3])

    @pytest.mark.parametrize("offset", [None, -1, 0, 1, 17])
    def test_query_counts_around_one_tile(self, small_tiles, offset):
        n_query = 1 if offset is None else small_tiles + offset
        q, db, lq, ldb = _tie_heavy(n_query, 700, 32, seed=n_query)
        expected = _reference_evaluate_codes(q, db, lq, ldb, 500, (10, 600))
        assert _same_report(
            evaluate_codes(q, db, lq, ldb, top_n=500, pn_points=(10, 600)),
            expected)

    def test_database_smaller_than_top_n_and_every_point(self, small_tiles):
        # MAP cut at the database size, every P@N point clamped to it.
        q, db, lq, ldb = _tie_heavy(20, 50, 64, seed=3)
        expected = _reference_evaluate_codes(q, db, lq, ldb, 5000, (300, 100))
        report = evaluate_codes(q, db, lq, ldb, top_n=5000,
                                pn_points=(300, 100))
        assert set(report.precision_at_n) == {50}
        assert _same_report(report, expected)

    def test_mismatched_or_relevance_free_inputs_raise(self, small_tiles):
        q, db, lq, ldb = _tie_heavy(20, 60, 16, seed=4)
        with pytest.raises(ShapeError):  # query label rows
            evaluate_codes(q, db, lq[:-1], ldb)
        with pytest.raises(ShapeError):  # database label rows
            evaluate_codes(q, db, lq, ldb[1:])
        with pytest.raises(ShapeError):  # label widths
            evaluate_codes(q, db, lq[:, 1:], ldb)
        with pytest.raises(ShapeError):  # no relevant pair in any tile
            evaluate_codes(q, db, np.zeros_like(lq), ldb)
        with pytest.raises(ShapeError):  # relevance rows
            mean_average_precision(q, db, relevance_matrix(lq, ldb)[1:])
        with pytest.raises(ShapeError):
            pr_curve_hamming(q, db, np.zeros((20, 60), bool))

    def test_heap_peak_is_one_tile_of_the_database(self):
        # The untiled path peaked at 52 and 103 MiB here: 11-13 bytes per
        # (query, database) pair.
        q, db, lq, ldb = _tie_heavy(400, 20_000, 16, seed=9)
        tile = (hamming.query_tile_rows(len(db), _TILE_PAIR_BYTES)
                * len(db) * _TILE_PAIR_BYTES)
        peaks = []
        for n_query in (200, 400):
            queries, labels = q[:n_query].copy(), lq[:n_query].copy()
            tracemalloc.start()
            try:
                evaluate_codes(queries, db, labels, ldb)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 2 * tile, (peaks, tile)
        assert peaks[1] - peaks[0] <= 256 * 1024, peaks

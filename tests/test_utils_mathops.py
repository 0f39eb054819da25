"""Unit + property tests for repro.utils.mathops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.errors import ConfigurationError, ShapeError
from repro.utils.mathops import (
    _topk_select,
    blocked_topk_cosine,
    cosine_similarity_matrix,
    l2_normalize,
    pairwise_inner,
    sign,
    softmax,
    stable_exp,
)

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_uniform_for_equal_scores(self):
        out = softmax(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.25)

    def test_temperature_sharpens(self):
        x = np.array([[0.1, 0.9]])
        soft = softmax(x, temperature=1.0)
        sharp = softmax(x, temperature=50.0)
        assert sharp[0, 1] > soft[0, 1]

    def test_large_values_stable(self):
        out = softmax(np.array([[1000.0, 1001.0]]))
        assert np.isfinite(out).all()

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            softmax(np.ones((1, 2)), temperature=0.0)

    @given(
        arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1,
                                        max_side=6), elements=finite_floats),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_distribution(self, x, temp):
        out = softmax(x, temperature=temp)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


class TestL2Normalize:
    def test_unit_norm(self):
        out = l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        out = l2_normalize(np.zeros((2, 3)))
        np.testing.assert_allclose(out, 0.0)


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(0).normal(size=(5, 8))
        sims = cosine_similarity_matrix(x)
        np.testing.assert_allclose(np.diag(sims), 1.0)

    def test_symmetric(self):
        x = np.random.default_rng(1).normal(size=(6, 4))
        sims = cosine_similarity_matrix(x)
        np.testing.assert_allclose(sims, sims.T)

    def test_orthogonal_vectors(self):
        sims = cosine_similarity_matrix(np.eye(3))
        np.testing.assert_allclose(sims, np.eye(3), atol=1e-12)

    def test_two_matrices(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        sims = cosine_similarity_matrix(a, b)
        np.testing.assert_allclose(sims, [[0.0, 1.0]], atol=1e-12)

    @given(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
               elements=finite_floats)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_bounded(self, x):
        sims = cosine_similarity_matrix(x)
        assert np.all(sims <= 1.0 + 1e-9)
        assert np.all(sims >= -1.0 - 1e-9)


class TestSign:
    def test_zero_maps_to_minus_one(self):
        # Paper §3.2: sgn "returns 1 if the input is positive and returns
        # -1 otherwise".
        np.testing.assert_array_equal(sign(np.array([0.0])), [-1.0])

    def test_signs(self):
        np.testing.assert_array_equal(
            sign(np.array([-2.0, 3.0, -0.1])), [-1.0, 1.0, -1.0]
        )

    @given(arrays(np.float64, st.integers(1, 20), elements=finite_floats))
    @settings(max_examples=50, deadline=None)
    def test_property_binary(self, x):
        out = sign(x)
        assert set(np.unique(out)) <= {-1.0, 1.0}


class TestPairwiseInner:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            pairwise_inner(np.ones((2, 3)), np.ones((2, 4)))

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            pairwise_inner(np.ones(3))

    def test_matches_matmul(self):
        a = np.random.default_rng(2).normal(size=(3, 5))
        b = np.random.default_rng(3).normal(size=(4, 5))
        np.testing.assert_allclose(pairwise_inner(a, b), a @ b.T)

    def test_default_dtype_stays_float64(self):
        a = np.ones((2, 3), dtype=np.float32)
        assert pairwise_inner(a).dtype == np.float64

    def test_dtype_passthrough_avoids_upcast(self):
        a = np.random.default_rng(4).normal(size=(3, 5)).astype(np.float32)
        out = pairwise_inner(a, dtype=np.float32)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, (a @ a.T), rtol=1e-6)


class TestDtypePassthrough:
    def test_l2_normalize_float32(self):
        x = np.random.default_rng(5).normal(size=(4, 3)).astype(np.float32)
        out = l2_normalize(x, dtype=np.float32)
        assert out.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                                   rtol=1e-6)

    def test_cosine_matrix_float32(self):
        x = np.random.default_rng(6).normal(size=(5, 4)).astype(np.float32)
        out = cosine_similarity_matrix(x, dtype=np.float32)
        assert out.dtype == np.float32
        np.testing.assert_allclose(np.diag(out), 1.0, rtol=1e-6)

    def test_cosine_matrix_default_unchanged(self):
        x = np.random.default_rng(7).normal(size=(5, 4)).astype(np.float32)
        assert cosine_similarity_matrix(x).dtype == np.float64


class TestBlockedTopkCosine:
    def test_full_k_matches_dense(self):
        x = np.random.default_rng(8).normal(size=(20, 6))
        data, indices, indptr = blocked_topk_cosine(x, 19)
        dense = np.zeros((20, 20))
        rows = np.repeat(np.arange(20), np.diff(indptr))
        dense[rows, indices] = data
        np.testing.assert_array_equal(dense, cosine_similarity_matrix(x))

    def test_row_budget_and_sorted_columns(self):
        x = np.random.default_rng(9).normal(size=(20, 6))
        data, indices, indptr = blocked_topk_cosine(x, 4)
        assert np.all(np.diff(indptr) == 5)  # k strongest + diagonal
        for row in range(20):
            cols = indices[indptr[row]:indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)
            assert row in cols

    def test_dtype_passthrough(self):
        x = np.random.default_rng(10).normal(size=(8, 3))
        data, _, _ = blocked_topk_cosine(x, 2, dtype=np.float32)
        assert data.dtype == np.float32

    def test_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ConfigurationError):
            blocked_topk_cosine(x, 0)
        with pytest.raises(ConfigurationError):
            blocked_topk_cosine(x, 2, block_rows=-1)

    def test_empty_corpus_yields_empty_csr(self):
        # Mirrors cosine_similarity_matrix's graceful (0, 0) result.
        data, indices, indptr = blocked_topk_cosine(np.empty((0, 5)), 3)
        assert data.shape == (0,) and indices.shape == (0,)
        np.testing.assert_array_equal(indptr, [0])


class TestParallelTopkCosine:
    """PR 8: pooled tile dispatch is bit-identical to the serial oracle."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_blocked_parallel_matches_serial(self, workers):
        x = np.random.default_rng(20).normal(size=(97, 12))
        serial = blocked_topk_cosine(x, 9, block_rows=16, workers=1)
        parallel = blocked_topk_cosine(x, 9, block_rows=16, workers=workers)
        for s_arr, p_arr in zip(serial, parallel):
            np.testing.assert_array_equal(s_arr, p_arr)

    def test_shared_pool_instance_accepted(self, monkeypatch):
        # Kernels accept a caller-owned pool and leave it open; the tile
        # count is visible in the counters (ceil(97 / 16) = 7 tiles).
        # Fake the core count so the cpu clamp can't serialize the pool
        # on a small CI box.
        import os

        from repro.utils.parallel import WorkerPool

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        x = np.random.default_rng(22).normal(size=(97, 12))
        with WorkerPool(3, name="shared") as pool:
            blocked_topk_cosine(x, 4, block_rows=16, workers=pool)
            stats = pool.stats()
            assert stats == {"workers": 3, "requested": 3, "serial": False,
                             "submitted": 7, "completed": 7, "rejected": 0}
            # Still usable afterwards — the kernel did not close it.
            assert pool.submit(lambda: "alive").result() == "alive"

    def test_env_default_resolves_parallel(self, monkeypatch):
        # workers=None reads $REPRO_WORKERS; output stays bit-identical.
        x = np.random.default_rng(23).normal(size=(40, 6))
        serial = blocked_topk_cosine(x, 3, block_rows=8, workers=1)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        from_env = blocked_topk_cosine(x, 3, block_rows=8, workers=None)
        for s_arr, e_arr in zip(serial, from_env):
            np.testing.assert_array_equal(s_arr, e_arr)


def _reference_select(block, keep, start, stop):
    """The full-row argpartition selection on a clipped tile: the oracle
    the two-level selection must reproduce on tie-free tiles."""
    block = np.clip(block, -1.0, 1.0)
    n = block.shape[1]
    if keep == n:
        selected = np.broadcast_to(np.arange(n), block.shape)
    else:
        selected = np.argpartition(block, n - keep, axis=1)[:, n - keep:]
        diagonal = np.arange(start, stop)
        has_diag = (selected == diagonal[:, None]).any(axis=1)
        selected[~has_diag, 0] = diagonal[~has_diag]
    rows = np.arange(stop - start)
    order = np.sort(selected, axis=1)
    return order, block[rows[:, None], order]


class TestTopkSelectOracle:
    """The two-level selection against the full-row reference."""

    # (n, keep): the group size g = isqrt(n // (4 * keep)) is noted per
    # case; g == 1 is the plain full-row path.
    CASES = {
        "grouped-no-tail": (400, 5),   # g = 4, 400 = 4 * 100
        "grouped-tail": (403, 5),      # g = 4, 3 tail columns
        "wide-groups": (3000, 3),      # g = 15, no tail
        "full-row": (60, 5),           # g = 1
        "keep-all": (30, 30),          # every column kept
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference_on_continuous_tiles(self, case, dtype):
        n, keep = self.CASES[case]
        rng = np.random.default_rng(n + keep)
        start, rows = 11, 23
        block = rng.uniform(-1.0, 1.0, size=(rows, n)).astype(dtype)
        # A near-maximal last column: a tail column (when there is one)
        # must be ranked, or it drops out of every row's top k.
        block[:, -1] = 1.0 - rng.uniform(0.0, 1e-4, rows)
        # One entry per row beyond each clip bound: the values must come
        # back clipped, and the selection must not depend on the clip.
        block[np.arange(rows), rng.integers(0, n, rows)] = 1.0 + rng.uniform(
            0.0, 0.01, rows)
        block[np.arange(rows), rng.integers(0, n, rows)] = -1.0 - rng.uniform(
            0.0, 0.01, rows)
        order, values = _topk_select(block, keep, start, start + rows)
        ref_order, ref_values = _reference_select(
            block, keep, start, start + rows
        )
        np.testing.assert_array_equal(order, ref_order)
        np.testing.assert_array_equal(values, ref_values)
        assert values.dtype == dtype

    def test_matches_reference_on_gemm_tiles(self):
        # Real cosine tiles: the diagonal is the row maximum, never
        # displaced, and the kept off-diagonal entries are the top k.
        rng = np.random.default_rng(5)
        a_n = l2_normalize(rng.normal(size=(900, 16)))
        for start in (0, 448):
            block = a_n[start:start + 64] @ a_n.T
            got = _topk_select(block, 9, start, start + 64)
            want = _reference_select(block, 9, start, start + 64)
            for g_arr, w_arr in zip(got, want):
                np.testing.assert_array_equal(g_arr, w_arr)


def _assert_topk_contract(csr, dense, keep):
    """The selection contract that holds even under exact ties."""
    data, indices, indptr = csr
    n = dense.shape[0]
    assert np.all(np.diff(indptr) == keep)
    for row in range(n):
        cols = indices[indptr[row]:indptr[row + 1]]
        assert np.all(np.diff(cols) > 0)
        assert row in cols
        np.testing.assert_array_equal(
            data[indptr[row]:indptr[row + 1]], dense[row, cols]
        )
        dropped = np.ones(n, dtype=bool)
        dropped[cols] = False
        if dropped.any():
            kept_off = dense[row, cols[cols != row]]
            assert kept_off.min() >= dense[row, dropped].max()


def _tie_heavy_inputs():
    rng = np.random.default_rng(31)
    base = rng.normal(size=(7, 8))
    zero_rows = rng.normal(size=(400, 8))
    zero_rows[::3] = 0.0
    return {
        "duplicated-rows": base[rng.integers(0, 7, size=400)],
        "zero-rows": zero_rows,
        "identical-rows": np.tile(base[:1], (400, 1)),
    }


class TestTopkSelectTies:
    """Tie-heavy inputs: the kept columns may differ from the full-row
    reference, so the contract is asserted instead, serially and on a
    2-thread pool."""

    K, BLOCK_ROWS = 5, 64  # keep = 6 of 400 columns: g = 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_contract_holds(self, workers, monkeypatch):
        import os

        from repro.utils.parallel import WorkerPool

        # Fake the core count so the cpu clamp can't serialize the pool
        # on a small CI box.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with WorkerPool(workers) as pool:
            for x in _tie_heavy_inputs().values():
                # The full-k build at the same tile height holds every
                # clipped entry exactly as the selection sees it.
                dense = np.zeros((len(x), len(x)))
                data, indices, indptr = blocked_topk_cosine(
                    x, len(x) - 1, block_rows=self.BLOCK_ROWS
                )
                rows = np.repeat(np.arange(len(x)), np.diff(indptr))
                dense[rows, indices] = data
                csr = blocked_topk_cosine(
                    x, self.K, block_rows=self.BLOCK_ROWS, workers=pool
                )
                _assert_topk_contract(csr, dense, self.K + 1)


class TestStableExp:
    def test_no_overflow(self):
        out = stable_exp(np.array([1e4, 1e4 + 1]))
        assert np.isfinite(out).all()

    def test_max_element_is_one(self):
        out = stable_exp(np.array([1.0, 5.0, 3.0]))
        assert out.max() == pytest.approx(1.0)

"""Tests for the SimilarityMatrix abstraction and the blocked top-k kernel.

Covers dense/sparse equivalence (bit-identical at k >= n-1, NumPy-oracle
gathers at small k), CSR round trips through the artifact store, chunked
vs monolithic inference identity, and the trainer consuming either Q form.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity_matrix import (
    DenseSimilarity,
    SimilarityMatrix,
    SparseTopKSimilarity,
    as_similarity_matrix,
    similarity_fingerprint,
    similarity_from_payload,
)
from repro.core.trainer import UHSCMTrainer
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError, ShapeError
from repro.pipeline import ArtifactStore
from repro.utils.mathops import blocked_topk_cosine, cosine_similarity_matrix


@pytest.fixture()
def features(rng):
    return rng.normal(size=(40, 16))


@pytest.fixture(scope="module")
def small_images(world):
    rng = np.random.default_rng(3)
    classes = ["cat"] * 10 + ["truck"] * 10 + ["flowers"] * 10
    latents = np.stack([world.image_latent([c], rng=rng) for c in classes])
    return world.render(latents, rng=rng)


def _sparse(features, k, **kwargs):
    return SparseTopKSimilarity.from_features(features, k, **kwargs)


class TestSparseDenseEquivalence:
    @pytest.mark.parametrize("block_rows", [8, 17, 40, 512])
    def test_full_k_bit_identical(self, features, block_rows):
        dense = cosine_similarity_matrix(features)
        sparse = _sparse(features, 39, block_rows=block_rows)
        assert np.array_equal(sparse.to_dense(), dense)

    def test_full_k_within_two_eps_of_dense(self, rng):
        # Row-block GEMMs may sum in another order than the dense build's
        # one GEMM; at this shape OpenBLAS moves a few hundred entries by
        # 1 eps.  The kernel's contract is this bound, not identity.
        feats = rng.normal(size=(513, 6))
        dense = cosine_similarity_matrix(feats)
        sparse = _sparse(feats, 512).to_dense()
        assert np.abs(sparse - dense).max() <= 2 * np.finfo(np.float64).eps

    def test_oversized_k_clamps_to_dense(self, features):
        dense = cosine_similarity_matrix(features)
        assert np.array_equal(_sparse(features, 10_000).to_dense(), dense)

    def test_small_k_keeps_strongest_plus_diagonal(self, features):
        dense = cosine_similarity_matrix(features)
        sparse = _sparse(features, 5)
        assert np.all(np.diff(sparse.indptr) == 6)  # k + diagonal
        for row in range(40):
            cols = sparse.indices[sparse.indptr[row]:sparse.indptr[row + 1]]
            vals = sparse.data[sparse.indptr[row]:sparse.indptr[row + 1]]
            assert row in cols
            assert np.array_equal(vals, dense[row, cols])
            off_kept = np.sort(dense[row, cols[cols != row]])
            off_all = np.sort(np.delete(dense[row], row))
            assert off_kept.min() >= off_all[-5:].min()

    def test_block_size_does_not_change_result(self, features):
        a = _sparse(features, 5, block_rows=4)
        b = _sparse(features, 5, block_rows=40)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)

    def test_gather_matches_numpy_oracle(self, features, rng):
        sparse = _sparse(features, 5)
        oracle = sparse.to_dense()
        for t in (1, 2, 17, 40):
            idx = rng.permutation(40)[:t]
            assert np.array_equal(sparse.gather(idx),
                                  oracle[np.ix_(idx, idx)])

    def test_dense_gather_matches_ix(self, features, rng):
        dense = cosine_similarity_matrix(features)
        wrapped = as_similarity_matrix(dense)
        idx = rng.permutation(40)[:13]
        assert np.array_equal(wrapped.gather(idx), dense[np.ix_(idx, idx)])

    def test_empty_gather(self, features):
        assert _sparse(features, 5).gather(np.array([], dtype=int)).shape == (0, 0)

    def test_kernel_validation(self, features):
        with pytest.raises(ConfigurationError):
            blocked_topk_cosine(features, 0)
        with pytest.raises(ConfigurationError):
            blocked_topk_cosine(features, 4, block_rows=0)

    def test_dtype_policy(self, features):
        sparse = _sparse(features, 5, dtype=np.float32)
        assert sparse.dtype == np.float32
        cast = sparse.astype(np.float64)
        assert cast.dtype == np.float64
        assert sparse.astype(np.float32) is sparse
        dense = as_similarity_matrix(cosine_similarity_matrix(features))
        assert dense.astype(np.float64) is dense

    def test_nbytes_linear_not_quadratic(self, rng):
        feats = rng.normal(size=(400, 8))
        sparse = _sparse(feats, 10)
        dense = DenseSimilarity(cosine_similarity_matrix(feats))
        assert sparse.nbytes < dense.nbytes / 8


class TestConstructionValidation:
    def test_dense_requires_square(self):
        with pytest.raises(ShapeError):
            DenseSimilarity(np.zeros((3, 4)))

    def test_csr_shape_checks(self):
        with pytest.raises(ShapeError):
            SparseTopKSimilarity(np.zeros(3), np.zeros(4, dtype=int),
                                 np.array([0, 3]), n=1, k=3)
        with pytest.raises(ShapeError):
            SparseTopKSimilarity(np.zeros(3), np.zeros(3, dtype=int),
                                 np.array([0, 2]), n=1, k=3)
        with pytest.raises(ConfigurationError):
            SparseTopKSimilarity(np.zeros(2), np.zeros(2, dtype=int),
                                 np.array([0, 2]), n=1, k=0)


class TestPayloadRoundTrip:
    def test_csr_store_round_trip(self, features, tmp_path):
        sparse = _sparse(features, 5)
        meta, arrays = sparse.payload()
        store = ArtifactStore(tmp_path / "cache")
        store.put("q-key", meta, arrays)
        # Fresh store instance: forces the disk round trip.
        replayed = ArtifactStore(tmp_path / "cache").get("q-key")
        restored = similarity_from_payload(replayed.meta, replayed.arrays)
        assert isinstance(restored, SparseTopKSimilarity)
        assert restored.k == 5 and restored.n == 40
        assert np.array_equal(restored.data, sparse.data)
        assert np.array_equal(restored.indices, sparse.indices)
        assert np.array_equal(restored.indptr, sparse.indptr)

    def test_dense_payload_keeps_legacy_layout(self, features):
        dense = cosine_similarity_matrix(features)
        meta, arrays = as_similarity_matrix(dense).payload()
        assert set(arrays) == {"matrix"}
        assert similarity_from_payload({}, arrays) is arrays["matrix"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            similarity_from_payload({"q_format": "bogus"}, {})

    def test_fingerprint_distinguishes_forms(self, features):
        dense = cosine_similarity_matrix(features)
        fp_dense = similarity_fingerprint(dense)
        fp_sparse = similarity_fingerprint(_sparse(features, 5))
        assert fp_dense != fp_sparse
        assert fp_dense == similarity_fingerprint(dense.copy())
        assert fp_sparse == similarity_fingerprint(_sparse(features, 5))
        assert fp_sparse != similarity_fingerprint(_sparse(features, 6))


class TestTrainerWithSparseQ:
    def _train(self, features, q, dtype="float64"):
        network = HashingNetwork(
            8, mode="feature", feature_extractor=lambda x: x,
            feature_dim=features.shape[1], rng=0, dtype=dtype,
        )
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=2, dtype=dtype)
        )
        return UHSCMTrainer(network, config).fit(features, q, epochs=2)

    def test_sparse_full_k_trains_identically(self, rng):
        features = rng.normal(size=(40, 16))
        q_dense = cosine_similarity_matrix(features)
        h_dense = self._train(features, q_dense)
        h_sparse = self._train(features, _sparse(features, 39))
        assert h_dense.total == h_sparse.total
        assert h_dense.similarity == h_sparse.similarity

    def test_sparse_small_k_trains(self, rng):
        features = rng.normal(size=(40, 16))
        history = self._train(features, _sparse(features, 5))
        assert history.n_epochs == 2
        assert all(np.isfinite(history.total))

    def test_shape_mismatch_still_rejected(self, rng):
        features = rng.normal(size=(40, 16))
        with pytest.raises(ConfigurationError):
            self._train(features, _sparse(features[:30], 5))

    def test_float32_policy_casts_sparse_q(self, rng):
        features = rng.normal(size=(40, 16))
        history = self._train(features, _sparse(features, 39),
                              dtype="float32")
        assert history.n_epochs == 2


class TestUHSCMSparseInjection:
    def test_injected_sparse_q_fits_and_marks_unmined(
        self, clip, small_images
    ):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=2)
        )
        n = small_images.shape[0]
        q = SparseTopKSimilarity.from_features(
            clip.image_features(small_images), n - 1
        )
        model = UHSCM(config, clip=clip)
        model.fit(small_images, similarity=q)
        assert model.concepts_mined is False
        assert isinstance(model.similarity_.matrix, SimilarityMatrix)
        codes = model.encode(small_images)
        assert codes.shape == (n, 8)


class TestChunkedInference:
    @pytest.fixture()
    def fitted(self, clip, small_images):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=1)
        )
        model = UHSCM(config, clip=clip)
        model.fit(small_images)
        return model

    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 30, 100])
    def test_chunked_encode_identity(self, fitted, small_images, chunk_size):
        # 30 rows: chunk sizes cover divisible, non-divisible, and > n.
        monolithic = fitted.encode(small_images)
        chunked = fitted.encode(small_images, chunk_size=chunk_size)
        assert np.array_equal(monolithic, chunked)

    @pytest.mark.parametrize("chunk_size", [7, 30])
    def test_chunked_relaxed_codes_identity(
        self, fitted, small_images, chunk_size
    ):
        # Relaxed (float) outputs: equal to BLAS summation-order noise —
        # degenerate tail chunks can take a different GEMM kernel (~1 ulp).
        np.testing.assert_allclose(
            fitted.relaxed_codes(small_images),
            fitted.relaxed_codes(small_images, chunk_size=chunk_size),
            rtol=0, atol=1e-12,
        )

    def test_invalid_chunk_size(self, fitted, small_images):
        with pytest.raises(ConfigurationError):
            fitted.encode(small_images, chunk_size=0)

    def test_encode_casts_to_network_dtype_once(self, fitted, small_images):
        # PR-2 dtype policy: a float32-trained network must receive float32
        # inputs (the old code hard-cast to float64 and the first layer cast
        # back, a double conversion).
        fitted.network.to("float32")
        seen: list[np.dtype] = []
        original = fitted.network.feature_extractor

        def spy(batch):
            seen.append(batch.dtype)
            return original(batch)

        fitted.network.feature_extractor = spy
        fitted.encode(small_images.astype(np.float64))
        assert seen and all(dt == np.float32 for dt in seen)

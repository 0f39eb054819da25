"""Tests for the factored Q (Eq. 6 held as ``clip(A·Aᵀ)``).

The factored form must reproduce the dense Q the generators used to
build: ``to_dense()`` bit for bit, every batch block within 4 machine
epsilons (a t-row GEMM may sum in a different order than the n-row one),
and a float32 cast exactly as casting the dense Q.  It must also never
allocate anything of size n², and dense artifacts already in a store must
still replay and train.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity import (
    ClusteredConceptSimilarityGenerator,
    ImageFeatureSimilarityGenerator,
    SemanticSimilarityGenerator,
    similarity_from_distributions,
)
from repro.core.similarity_matrix import (
    DenseSimilarity,
    FactoredSimilarity,
    similarity_fingerprint,
    similarity_from_payload,
)
from repro.core.trainer import UHSCMTrainer
from repro.core.uhscm import UHSCM
from repro.errors import ShapeError
from repro.pipeline import ArtifactStore
from repro.utils.mathops import cosine_similarity_matrix
from repro.vlp.concepts import NUS_WIDE_81

EPS = np.finfo(np.float64).eps
TEMPLATES = ("default", "p1", "p2")
#: 513 rows: a shape where OpenBLAS sums some block entries differently
#: from the whole-matrix product.
N_IMAGES = 513


@pytest.fixture(scope="module")
def images(world):
    rng = np.random.default_rng(5)
    classes = ["cat", "truck", "flowers", "sky", "dog"]
    latents = np.stack([
        world.image_latent([classes[i % len(classes)]], rng=rng)
        for i in range(N_IMAGES)
    ])
    return world.render(latents, rng=rng)


def _factored_and_dense(kind, clip, images):
    """The generator's factored Q and the dense Q it used to return."""
    if kind == "single":
        result = SemanticSimilarityGenerator(clip, NUS_WIDE_81).generate(
            images)
        return result.matrix, cosine_similarity_matrix(result.distributions)
    if kind == "avg":
        result = SemanticSimilarityGenerator(
            clip, NUS_WIDE_81, templates=TEMPLATES).generate(images)
        per_template = [
            SemanticSimilarityGenerator(
                clip, NUS_WIDE_81, templates=(t,)).generate(images)
            for t in TEMPLATES
        ]
        dense = np.mean(
            [cosine_similarity_matrix(r.distributions) for r in per_template],
            axis=0,
        )
        return result.matrix, dense
    if kind == "if":
        result = ImageFeatureSimilarityGenerator(clip).generate(images)
        return result.matrix, cosine_similarity_matrix(
            clip.image_features(images))
    result = ClusteredConceptSimilarityGenerator(
        clip, NUS_WIDE_81, 20).generate(images)
    return result.matrix, cosine_similarity_matrix(result.distributions)


class TestFactoredMatchesDense:
    @pytest.mark.parametrize("kind", ["single", "avg", "if", "kmeans"])
    def test_blocks_within_4_eps_of_dense_gather(self, clip, images, kind):
        factored, dense = _factored_and_dense(kind, clip, images)
        assert isinstance(factored, FactoredSimilarity)
        assert factored.nbytes < dense.nbytes / 5
        assert np.array_equal(factored.to_dense(), dense)
        reference = DenseSimilarity(dense)
        rng = np.random.default_rng(0)
        for _ in range(10):
            idx = rng.permutation(N_IMAGES)[:128]
            block = factored.gather(idx)
            assert block.dtype == np.float64
            assert np.max(np.abs(block - reference.gather(idx))) <= 4 * EPS

    @pytest.mark.parametrize("kind", ["single", "avg"])
    def test_float32_cast_is_the_cast_of_the_float64_block(
        self, clip, images, kind
    ):
        factored, _ = _factored_and_dense(kind, clip, images)
        cast = factored.astype(np.float32)
        assert cast.dtype == np.float32
        assert all(a is b for a, b in zip(cast.factors, factored.factors))
        assert cast.astype(np.float32) is cast
        idx = np.random.default_rng(1).permutation(N_IMAGES)[:128]
        block = cast.gather(idx)
        assert block.dtype == np.float32
        assert np.array_equal(block,
                              factored.gather(idx).astype(np.float32))


class TestFactoredForm:
    def test_payload_round_trip_through_a_raw_store(self, rng, tmp_path,
                                                    monkeypatch):
        q = FactoredSimilarity(
            *(similarity_from_distributions(rng.dirichlet(np.ones(m), 40))
              .factors[0] for m in (5, 7)),
            dtype=np.float32,
        )
        monkeypatch.setattr(ArtifactStore, "MMAP_BYTES", 0)
        store = ArtifactStore(tmp_path / "cache")
        store.put("q", *q.payload())
        art = ArtifactStore(tmp_path / "cache").get("q")
        restored = similarity_from_payload(art.meta, art.arrays)
        assert isinstance(restored, FactoredSimilarity)
        assert isinstance(restored.factors[0], np.memmap)
        assert restored.dtype == np.float32
        assert np.array_equal(restored.to_dense(), q.to_dense())
        assert similarity_fingerprint(restored) == similarity_fingerprint(q)

    def test_fingerprint_hashes_the_factors(self, rng):
        q = similarity_from_distributions(rng.dirichlet(np.ones(6), 30))
        other = similarity_from_distributions(rng.dirichlet(np.ones(6), 30))
        assert similarity_fingerprint(q) != similarity_fingerprint(other)
        assert similarity_fingerprint(q) != similarity_fingerprint(
            q.astype(np.float32))
        assert similarity_fingerprint(q) != similarity_fingerprint(
            q.to_dense())

    def test_factors_must_share_their_rows(self, rng):
        with pytest.raises(ShapeError):
            FactoredSimilarity(rng.normal(size=(4, 3)),
                               rng.normal(size=(5, 3)))
        with pytest.raises(ShapeError):
            FactoredSimilarity(rng.normal(size=4))


class TestNoQuadraticAllocation:
    N = 3000
    BOUND = N * N * 8 // 10

    @staticmethod
    def _traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build(self, rng):
        dist = rng.dirichlet(np.ones(15), size=self.N)
        peak = self._traced_peak(lambda: similarity_from_distributions(dist))
        assert peak < self.BOUND

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_one_training_epoch(self, rng, dtype):
        dist = rng.dirichlet(np.ones(15), size=self.N)
        q = similarity_from_distributions(dist)
        network = HashingNetwork(
            16, mode="feature", feature_extractor=lambda x: x,
            feature_dim=15, rng=0, dtype=dtype,
        )
        trainer = UHSCMTrainer(network, UHSCMConfig(
            n_bits=16, train=TrainConfig(batch_size=128, dtype=dtype)))
        peak = self._traced_peak(lambda: trainer.fit(dist, q, epochs=1))
        assert peak < self.BOUND


class TestDenseArtifactsReplay:
    @pytest.mark.parametrize("templates", [(None,), ("default", "p1")])
    @pytest.mark.parametrize("layout", [{}, {"q_format": "dense"}])
    def test_dense_build_q_replays_and_trains(
        self, clip, cifar_tiny, tmp_path, templates, layout
    ):
        images = cifar_tiny.train_images
        key = {"dataset": "unit", "scale": 1.0, "seed": 0, "split": "train"}
        generator = SemanticSimilarityGenerator(
            clip, NUS_WIDE_81, templates=templates)
        fresh = generator.generate(
            images, store=ArtifactStore(tmp_path / "cache"), data_key=key)
        dense = fresh.matrix.to_dense()
        # What a store written before the factored form holds at this key.
        ArtifactStore(tmp_path / "cache").put(
            fresh.fingerprint,
            {"concepts": list(fresh.concepts), **layout},
            {"matrix": dense},
        )

        store = ArtifactStore(tmp_path / "cache")
        replay = generator.generate(images, store=store, data_key=key)
        assert replay.fingerprint == fresh.fingerprint
        assert isinstance(replay.matrix, np.ndarray)
        assert np.array_equal(replay.matrix, dense)

        config = UHSCMConfig(n_bits=8, train=TrainConfig(
            batch_size=16, epochs=2))
        model = UHSCM(config, clip=clip, similarity_generator=generator)
        model.fit(images, store=store, data_key=key)
        assert np.array_equal(model.similarity_.matrix, dense)
        assert model.history_.n_epochs == 2
        assert all(np.isfinite(model.history_.total))
        assert model.encode(images).shape == (images.shape[0], 8)

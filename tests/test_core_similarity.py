"""Tests for the semantic similarity generators (Eq. 3 / Eq. 6)."""

import numpy as np
import pytest

from repro.core.similarity import (
    ClusteredConceptSimilarityGenerator,
    ImageFeatureSimilarityGenerator,
    SemanticSimilarityGenerator,
    similarity_from_distributions,
)
from repro.errors import ConfigurationError
from repro.vlp.concepts import NUS_WIDE_81


@pytest.fixture(scope="module")
def class_images(world):
    rng = np.random.default_rng(11)
    classes = ["cat"] * 10 + ["truck"] * 10 + ["flowers"] * 10
    lat = np.stack([world.image_latent([c], rng=rng) for c in classes])
    return world.render(lat, rng=rng), np.repeat(np.arange(3), 10)


class TestSimilarityFromDistributions:
    def test_diagonal_is_one(self, rng):
        d = rng.dirichlet(np.ones(5), size=8)
        q = similarity_from_distributions(d).to_dense()
        np.testing.assert_allclose(np.diag(q), 1.0)

    def test_nonnegative_for_distributions(self, rng):
        q = similarity_from_distributions(
            rng.dirichlet(np.ones(4), size=6)).to_dense()
        assert np.all(q >= 0)

    def test_rank_check(self):
        with pytest.raises(ConfigurationError):
            similarity_from_distributions(np.zeros(4))


class TestSemanticSimilarityGenerator:
    def test_block_structure(self, clip, class_images):
        images, labels = class_images
        gen = SemanticSimilarityGenerator(clip, NUS_WIDE_81)
        result = gen.generate(images)
        q = result.matrix.to_dense()
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(30, dtype=bool)
        assert q[same & off].mean() > q[~same].mean() + 0.3

    def test_denoising_shrinks_concepts(self, clip, class_images):
        images, _ = class_images
        gen = SemanticSimilarityGenerator(clip, NUS_WIDE_81, denoise=True)
        result = gen.generate(images)
        assert result.denoising is not None
        assert len(result.concepts) < len(NUS_WIDE_81)

    def test_no_denoise_keeps_all(self, clip, class_images):
        images, _ = class_images
        gen = SemanticSimilarityGenerator(clip, NUS_WIDE_81, denoise=False)
        result = gen.generate(images)
        assert result.concepts == tuple(NUS_WIDE_81)
        assert result.denoising is None

    def test_template_ensembling_averages(self, clip, class_images):
        images, _ = class_images
        single = SemanticSimilarityGenerator(clip, NUS_WIDE_81).generate(images)
        avg = SemanticSimilarityGenerator(
            clip, NUS_WIDE_81,
            templates=("default", "p1", "p2"),
        ).generate(images)
        assert avg.matrix.shape == single.matrix.shape
        assert not np.allclose(avg.matrix.to_dense(),
                               single.matrix.to_dense())

    def test_validation(self, clip):
        with pytest.raises(ConfigurationError):
            SemanticSimilarityGenerator(clip, ())
        with pytest.raises(ConfigurationError):
            SemanticSimilarityGenerator(clip, NUS_WIDE_81, templates=())


class TestImageFeatureGenerator:
    def test_symmetric_unit_diagonal(self, clip, class_images):
        images, _ = class_images
        q = ImageFeatureSimilarityGenerator(clip).generate(
            images).matrix.to_dense()
        np.testing.assert_allclose(np.diag(q), 1.0)
        np.testing.assert_allclose(q, q.T)

    def test_weaker_class_structure_than_mined(self, clip, class_images):
        """UHSCM_IF's premise: raw-feature Q tracks the true class structure
        less faithfully than concept-mined Q (correlation with the ideal
        same-class indicator)."""
        images, labels = class_images
        mined = SemanticSimilarityGenerator(clip, NUS_WIDE_81).generate(images)
        raw = ImageFeatureSimilarityGenerator(clip).generate(images)
        same = (labels[:, None] == labels[None, :]).astype(float)
        off = ~np.eye(30, dtype=bool)

        def fidelity(q):
            return np.corrcoef(q[off], same[off])[0, 1]

        assert (fidelity(mined.matrix.to_dense())
                > fidelity(raw.matrix.to_dense()))


class TestClusteredGenerator:
    def test_cluster_count_respected(self, clip, class_images):
        images, _ = class_images
        gen = ClusteredConceptSimilarityGenerator(clip, NUS_WIDE_81, 20)
        result = gen.generate(images)
        assert result.distributions.shape == (30, 20)
        assert len(result.concepts) == 20

    def test_validation(self, clip):
        with pytest.raises(ConfigurationError):
            ClusteredConceptSimilarityGenerator(clip, NUS_WIDE_81, 0)
        with pytest.raises(ConfigurationError):
            ClusteredConceptSimilarityGenerator(clip, ("a", "b"), 5)

"""Tests for the semantic world: determinism, geometry, backbones."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.vlp.world import SemanticWorld, WorldConfig


class TestWorldConfig:
    def test_defaults_valid(self):
        WorldConfig()

    def test_render_needs_enough_pixels(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(latent_dim=1000, image_size=4)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(style_noise=-0.1)


class TestDeterminism:
    def test_directions_stable_across_instances(self):
        a = SemanticWorld(WorldConfig(seed=5)).concept_direction("cat")
        b = SemanticWorld(WorldConfig(seed=5)).concept_direction("cat")
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SemanticWorld(WorldConfig(seed=5)).concept_direction("cat")
        b = SemanticWorld(WorldConfig(seed=6)).concept_direction("cat")
        assert not np.allclose(a, b)

    def test_alias_shares_direction(self, world):
        np.testing.assert_array_equal(
            world.concept_direction("birds"), world.concept_direction("bird")
        )


class TestGeometry:
    def test_directions_unit_norm(self, world):
        for name in ("cat", "animal", "sky", "unheard-of-concept"):
            assert np.linalg.norm(world.concept_direction(name)) == (
                pytest.approx(1.0)
            )

    def test_hypernym_overlaps_members(self, world):
        animal = world.concept_direction("animal")
        cat = world.concept_direction("cat")
        sky = world.concept_direction("sky")
        assert animal @ cat > 0.3
        assert abs(animal @ sky) < 0.3

    def test_members_share_core(self, world):
        cat = world.concept_direction("cat")
        dog = world.concept_direction("dog")
        assert cat @ dog > 0.1  # both blend the 'animal' core

    def test_unrelated_nearly_orthogonal(self, world):
        a = world.concept_direction("bridge")
        b = world.concept_direction("tattoo")
        assert abs(a @ b) < 0.4

    def test_concept_matrix_shape(self, world):
        mat = world.concept_matrix(["cat", "dog", "sky"])
        assert mat.shape == (3, world.config.latent_dim)


class TestImagePipeline:
    def test_latent_contains_concept(self, world, rng):
        z = world.image_latent(["cat"], rng=rng)
        assert z @ world.concept_direction("cat") > 0.5

    def test_weights_shift_latent(self, world):
        z = world.image_latent(["cat", "sky"], np.array([5.0, 0.1]), rng=1)
        cat_score = z @ world.concept_direction("cat")
        sky_score = z @ world.concept_direction("sky")
        assert cat_score > sky_score

    def test_render_encode_roundtrip(self, world, rng):
        latents = np.stack([world.image_latent(["dog"], rng=rng) for _ in range(4)])
        images = world.render(latents, rng=rng)
        recovered = world.backbone_features(images)
        # Orthonormal render: recovery error only from pixel noise.
        err = np.linalg.norm(recovered - latents, axis=1)
        assert err.max() < 0.5

    def test_render_shape(self, world, rng):
        img = world.render(world.image_latent(["cat"], rng=rng), rng=rng)
        c, s = world.config.channels, world.config.image_size
        assert img.shape == (1, c, s, s)

    def test_render_into_out_matches_one_noise_draw(self, world, rng):
        # 150 rows: several noise blocks and a partial last one.  Each way
        # must give the bytes of one whole-matrix noise draw.
        latents = rng.normal(size=(150, world.config.latent_dim))
        c, s = world.config.channels, world.config.image_size
        flat = latents @ world._render.T
        expected = flat + (np.random.default_rng(7).normal(size=flat.shape)
                           * world.config.pixel_noise)
        images = np.empty((151, c, s, s))
        result = world.render(latents, rng=7, out=images[1:])
        assert result.base is images
        assert images[1:].tobytes() == expected.tobytes()
        assert world.render(latents, rng=7).tobytes() == expected.tobytes()

    def test_render_rejects_unfit_out(self, world, rng):
        latents = rng.normal(size=(4, world.config.latent_dim))
        c, s = world.config.channels, world.config.image_size
        for out in (np.empty((3, c, s, s)), np.empty((4, c, s, s), np.float32),
                    np.empty((4, c, s, 2 * s))[..., ::2]):
            with pytest.raises(ConfigurationError):
                world.render(latents, out=out)

    def test_encode_rejects_bad_shape(self, world, rng):
        with pytest.raises(ConfigurationError):
            world.encode_pixels(rng.normal(size=(1, 3, 4, 4)))

    def test_weight_shape_mismatch(self, world):
        with pytest.raises(ConfigurationError):
            world.image_latent(["cat"], np.array([1.0, 2.0]))


class TestBackboneAsymmetry:
    """The CLIP-vs-VGG asymmetry the reproduction is built on."""

    def _latents(self, world, concept, n, rng):
        return np.stack([world.image_latent([concept], rng=rng) for _ in range(n)])

    def test_clip_suppresses_style_more_than_vgg(self, world, rng):
        lat = self._latents(world, "cat", 30, rng)
        images = world.render(lat, rng=rng)
        clip_feats = world.encode_pixels(images)
        # Style projection should be smaller (relatively) in CLIP features.
        style = world._style_basis
        raw = world.backbone_features(images)
        clip_style_ratio = np.linalg.norm(clip_feats @ style) / np.linalg.norm(
            clip_feats
        )
        raw_style_ratio = np.linalg.norm(raw @ style) / np.linalg.norm(raw)
        assert clip_style_ratio < raw_style_ratio

    def test_vgg_separability_worse_than_clip(self, world, rng):
        cats = world.render(self._latents(world, "cat", 25, rng), rng=rng)
        trucks = world.render(self._latents(world, "truck", 25, rng), rng=rng)

        def separation(feat_fn):
            a, b = feat_fn(cats), feat_fn(trucks)
            na = a / np.linalg.norm(a, axis=1, keepdims=True)
            nb = b / np.linalg.norm(b, axis=1, keepdims=True)
            within = (na @ na.T).mean()
            between = (na @ nb.T).mean()
            return within - between

        assert separation(world.encode_pixels) > separation(world.vgg_features)

    def test_augment_preserves_semantics(self, world, rng):
        lat = self._latents(world, "cat", 10, rng)
        images = world.render(lat, rng=rng)
        feats = world.backbone_features(images)
        aug = world.augment_features(feats, rng=rng)
        cat_dir = world.concept_direction("cat")
        np.testing.assert_allclose(
            aug @ cat_dir, feats @ cat_dir, atol=0.5
        )
        assert not np.allclose(aug, feats)

"""Tests for dataset specs, splits, and the synthetic generator."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_NAMES,
    PAPER_SPLITS,
    SplitSizes,
    dataset_spec,
    generate_dataset,
    load_dataset,
    paper_splits,
)
from repro.datasets.synthetic import _RENDER_CHUNK, DatasetSpec, _sample_image
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator, spawn
from repro.vlp.world import SemanticWorld


class TestSplits:
    def test_paper_sizes(self):
        assert PAPER_SPLITS["cifar10"] == (10_000, 1_000, 59_000)
        assert PAPER_SPLITS["nuswide"] == (10_500, 5_000, 190_834)
        assert PAPER_SPLITS["mirflickr"] == (10_000, 1_000, 24_000)

    def test_full_scale(self):
        sizes = paper_splits("cifar10", scale=1.0)
        assert (sizes.train, sizes.query, sizes.database) == PAPER_SPLITS["cifar10"]

    def test_scaling_keeps_floors(self):
        sizes = paper_splits("cifar10", scale=0.001)
        assert sizes.train >= 60 and sizes.query >= 30 and sizes.database >= 120

    def test_database_contains_train(self):
        with pytest.raises(ConfigurationError):
            SplitSizes(train=100, query=10, database=50)

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            paper_splits("cifar10", scale=0.0)
        with pytest.raises(ConfigurationError):
            paper_splits("cifar10", scale=1.5)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            paper_splits("mnist")


class TestSpecValidation:
    def test_known_specs(self):
        for name in DATASET_NAMES:
            spec = dataset_spec(name)
            assert spec.name == name

    def test_probs_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(name="x", class_names=("a", "b"), class_probs=(0.5,))

    def test_background_needs_concept(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(
                name="x", class_names=("a",), class_probs=(0.5,),
                background_prob=0.5,
            )

    def test_context_probs_sum(self):
        with pytest.raises(ConfigurationError):
            DatasetSpec(
                name="x", class_names=("a",), class_probs=(0.5,),
                context_count_probs=(0.5, 0.4),
            )


class TestGeneratedDatasets:
    def test_shapes_and_split_consistency(self, cifar_tiny):
        d = cifar_tiny
        assert d.n_train == 80 and d.n_query == 30 and d.n_database == 300
        assert d.train_images.shape[1:] == d.query_images.shape[1:]
        # Training images are database rows at train_indices.
        np.testing.assert_array_equal(
            d.train_images, d.database_images[d.train_indices]
        )
        np.testing.assert_array_equal(
            d.train_labels, d.database_labels[d.train_indices]
        )

    def test_cifar_single_label(self, cifar_tiny):
        assert not cifar_tiny.is_multilabel
        np.testing.assert_array_equal(cifar_tiny.train_labels.sum(axis=1), 1)

    def test_nuswide_multilabel(self, nuswide_tiny):
        assert nuswide_tiny.is_multilabel
        assert nuswide_tiny.n_classes == 21
        assert np.all(nuswide_tiny.database_labels.sum(axis=1) >= 1)

    def test_mirflickr_classes(self, mirflickr_tiny):
        assert mirflickr_tiny.n_classes == 24

    def test_nuswide_sky_frequent(self, nuswide_tiny):
        idx = nuswide_tiny.class_names.index("sky")
        freq = nuswide_tiny.database_labels[:, idx].mean()
        assert 0.2 < freq < 0.5

    def test_features_cached_and_shaped(self, cifar_tiny):
        f1 = cifar_tiny.features("train")
        f2 = cifar_tiny.features("train")
        assert f1 is f2  # cache hit
        assert f1.shape == (cifar_tiny.n_train, cifar_tiny.world.VGG_DIM)

    def test_labels_accessor(self, cifar_tiny):
        with pytest.raises(ConfigurationError):
            cifar_tiny.labels("validation")
        assert cifar_tiny.labels("query").shape == (30, 10)

    def test_determinism(self, world):
        sizes = SplitSizes(train=60, query=30, database=120)
        a = generate_dataset(dataset_spec("cifar10"), sizes, world=world, seed=3)
        b = generate_dataset(dataset_spec("cifar10"), sizes, world=world, seed=3)
        np.testing.assert_array_equal(a.database_images, b.database_images)
        np.testing.assert_array_equal(a.database_labels, b.database_labels)

    def test_seed_changes_data(self, world):
        sizes = SplitSizes(train=60, query=30, database=120)
        a = generate_dataset(dataset_spec("cifar10"), sizes, world=world, seed=3)
        b = generate_dataset(dataset_spec("cifar10"), sizes, world=world, seed=4)
        assert not np.array_equal(a.database_labels, b.database_labels)

    def test_load_dataset_entry_point(self):
        d = load_dataset("cifar10", scale=0.002, seed=1)
        assert d.name == "cifar10"
        with pytest.raises(ConfigurationError):
            load_dataset("svhn")

    def test_class_balance_cifar(self, cifar_tiny):
        counts = cifar_tiny.database_labels.sum(axis=0)
        assert counts.min() > 0


def _concatenated_reference(name: str, scale: float, seed: int):
    """``load_dataset``'s images, labels and train rows, generated the way
    the generator used to: each chunk rendered to its own array, then one
    ``np.concatenate`` over all of them."""
    spec = dataset_spec(name)
    sizes = paper_splits(name, scale)
    world = SemanticWorld()
    label_rng, latent_rng, pixel_rng, split_rng = spawn(as_generator(seed), 4)
    total = sizes.total_generated
    labels = np.zeros((total, len(spec.class_names)), dtype=np.int8)
    latents = np.zeros((total, world.config.latent_dim))
    for i in range(total):
        sample = _sample_image(spec, label_rng)
        labels[i] = sample.label_mask
        latents[i] = world.image_latent(
            sample.concepts, np.asarray(sample.weights), rng=latent_rng,
            instance_scale=spec.instance_scale,
        )
    images = np.concatenate([
        world.render(latents[start:start + _RENDER_CHUNK], rng=pixel_rng)
        for start in range(0, total, _RENDER_CHUNK)
    ])
    train = np.sort(
        split_rng.choice(sizes.database, size=sizes.train, replace=False))
    return sizes, images, labels, train


@pytest.mark.parametrize(
    "name, scale, seed",
    [("cifar10", 0.02, 0), ("nuswide", 0.02, 3), ("mirflickr", 0.05, 1)],
)
def test_in_place_rendering_matches_concatenated_chunks(name, scale, seed):
    data = load_dataset(name, scale=scale, seed=seed)
    sizes, images, labels, train = _concatenated_reference(name, scale, seed)
    # Several chunks, the last one partial.
    assert sizes.total_generated > _RENDER_CHUNK
    assert sizes.total_generated % _RENDER_CHUNK
    q = sizes.query
    for got, want in [
        (data.query_images, images[:q]),
        (data.database_images, images[q:]),
        (data.train_images, images[q:][train]),
        (data.query_labels, labels[:q]),
        (data.database_labels, labels[q:]),
        (data.train_labels, labels[q:][train]),
        (data.train_indices, train),
    ]:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

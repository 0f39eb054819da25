"""Tests for dataset specs, splits, and the synthetic generator."""

import tracemalloc
from dataclasses import dataclass, field

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
from repro.datasets.synthetic import _RENDER_CHUNK, DatasetSpec
from repro.errors import ConfigurationError, VocabularyError
from repro.utils.mathops import l2_normalize
from repro.utils.rng import as_generator, spawn
from repro.vlp.world import SemanticWorld, WorldConfig


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


# -- the per-image oracle ----------------------------------------------------
#
# ``generate_dataset`` as one Python iteration per image, drawing that image's
# labels and then its latent on 48-element vectors.  Kept frozen as the
# byte-identity reference for the chunked generator.


@dataclass
class _SampledImage:
    label_mask: np.ndarray
    concepts: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)
    fallback: bool = False


def _sample_image(spec: DatasetSpec, rng: np.random.Generator) -> _SampledImage:
    """Draw one image's label set, visible concepts, and mixture weights."""
    n_classes = len(spec.class_names)
    probs = np.asarray(spec.class_probs, dtype=np.float64)
    dominance = spec.dominance_array

    fallback = False
    if spec.single_label:
        cls = int(rng.choice(n_classes, p=probs / probs.sum()))
        mask = np.zeros(n_classes, dtype=np.int8)
        mask[cls] = 1
        present = [cls]
    else:
        mask = (rng.random(n_classes) < probs).astype(np.int8)
        if mask.sum() == 0:
            fallback = True
            cls = int(rng.choice(n_classes, p=probs / probs.sum()))
            mask[cls] = 1
        present = list(np.flatnonzero(mask))

    sample = _SampledImage(label_mask=mask, fallback=fallback)
    for cls in present:
        jitter = rng.uniform(0.85, 1.15)
        sample.concepts.append(spec.class_names[cls])
        sample.weights.append(float(dominance[cls] * jitter))

    if spec.background_concept and rng.random() < spec.background_prob:
        sample.concepts.append(spec.background_concept)
        sample.weights.append(spec.background_weight)

    if spec.context_pool:
        n_context = int(
            rng.choice(len(spec.context_count_probs), p=spec.context_count_probs)
        )
        if n_context > 0:
            picks = rng.choice(
                len(spec.context_pool),
                size=min(n_context, len(spec.context_pool)),
                replace=False,
            )
            for idx in picks:
                sample.concepts.append(spec.context_pool[int(idx)])
                sample.weights.append(spec.context_weight)
    return sample


def _image_latent(world, concepts, weights, rng, instance_scale=1.0):
    """One image's latent, computed on its own 48-element vectors."""
    dirs = world.concept_matrix(concepts)
    semantic = l2_normalize(np.asarray(weights, dtype=np.float64) @ dirs)
    instance = l2_normalize(rng.normal(size=world.config.latent_dim))
    style = world._style_basis @ (
        rng.normal(size=world.config.style_dim) * world.config.style_noise
    )
    instance_amp = world.config.instance_noise * float(instance_scale)
    return semantic + instance_amp * instance + style


def _per_image_reference(spec, sizes, world, seed):
    """``generate_dataset``'s images, labels and train rows from the
    per-image loop, plus how many images took the empty-mask fallback."""
    label_rng, latent_rng, pixel_rng, split_rng = spawn(as_generator(seed), 4)
    total = sizes.total_generated
    labels = np.zeros((total, len(spec.class_names)), dtype=np.int8)
    latents = np.zeros((total, world.config.latent_dim))
    fallbacks = 0
    for i in range(total):
        sample = _sample_image(spec, label_rng)
        fallbacks += sample.fallback
        labels[i] = sample.label_mask
        latents[i] = _image_latent(world, sample.concepts, sample.weights,
                                   latent_rng, spec.instance_scale)
    images = np.concatenate([
        world.render(latents[start:start + _RENDER_CHUNK], rng=pixel_rng)
        for start in range(0, total, _RENDER_CHUNK)
    ])
    train = np.sort(
        split_rng.choice(sizes.database, size=sizes.train, replace=False))
    return images, labels, train, fallbacks


def _assert_matches_reference(data, spec, sizes, world, seed):
    """Every array of ``data`` has the per-image loop's exact bytes
    (``tobytes``: ``array_equal`` would let -0.0 stand for 0.0)."""
    images, labels, train, fallbacks = _per_image_reference(
        spec, sizes, world, seed)
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
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    return fallbacks


@pytest.mark.parametrize(
    "name, scale, seed",
    [("cifar10", 0.02, 0), ("nuswide", 0.02, 3), ("mirflickr", 0.05, 1)],
)
def test_in_place_rendering_matches_concatenated_chunks(name, scale, seed):
    data = load_dataset(name, scale=scale, seed=seed)
    spec, sizes = dataset_spec(name), paper_splits(name, scale)
    # Several chunks, the last one partial.
    assert sizes.total_generated > _RENDER_CHUNK
    assert sizes.total_generated % _RENDER_CHUNK
    fallbacks = _assert_matches_reference(data, spec, sizes, SemanticWorld(), seed)
    if not spec.single_label:
        # Some image drew an empty label set and took the fallback class.
        assert fallbacks > 0


#: ``examples/custom_dataset.py``'s spec, world, sizes and seed.
_CUSTOM_SPEC = DatasetSpec(
    name="pets-vs-vehicles",
    class_names=("cat", "dog", "rabbit", "car", "bus", "bicycle"),
    class_probs=(0.25, 0.25, 0.10, 0.25, 0.10, 0.15),
    context_pool=("grass", "road", "window", "toy"),
    context_count_probs=(0.5, 0.3, 0.2),
)
#: A single-label spec with a background, whose rows mix one or two
#: concepts.
_SINGLE_WITH_BACKGROUND = DatasetSpec(
    name="single-with-background",
    class_names=("cat", "dog", "car"),
    class_probs=(0.5, 0.3, 0.2),
    dominance=(1.0, 1.2, 0.9),
    single_label=True,
    background_concept="sun",
    background_prob=0.6,
    instance_scale=1.3,
)
_ONE_CHUNK = SplitSizes(train=60, query=30, database=200)


@pytest.mark.parametrize(
    "spec, sizes, world_seed, seed",
    [
        (_CUSTOM_SPEC, SplitSizes(train=300, query=60, database=1200), 2024, 11),
        (_SINGLE_WITH_BACKGROUND, SplitSizes(train=100, query=24, database=1000),
         None, 5),
        # Exactly two chunks, no partial one.
        (dataset_spec("mirflickr"), SplitSizes(train=100, query=24, database=1000),
         None, 2),
        # Smaller than one chunk.
        (dataset_spec("cifar10"), _ONE_CHUNK, None, 4),
        (dataset_spec("nuswide"), _ONE_CHUNK, 99, 6),
    ],
    ids=["custom", "single-with-background", "two-full-chunks",
         "cifar10-one-chunk", "nuswide-one-chunk"],
)
def test_generator_matches_per_image_oracle(spec, sizes, world_seed, seed):
    def make_world():
        if world_seed is None:
            return SemanticWorld()
        return SemanticWorld(WorldConfig(seed=world_seed))

    data = generate_dataset(spec, sizes, world=make_world(), seed=seed)
    fallbacks = _assert_matches_reference(data, spec, sizes, make_world(), seed)
    if not spec.single_label:
        assert fallbacks > 0


class TestImageLatents:
    def test_rows_of_mixed_concept_counts_match_one_image_each(self):
        world = SemanticWorld()
        names = ("cat", "dog", "sky", "car", "grass")
        concepts = [["cat"], ["dog", "sky"], ["car"], ["grass", "cat", "sky"],
                    ["sky", "dog"]]
        weights = [[1.1], [0.9, 1.7], [1.0], [0.45, 1.05, 2.0], [1.2, 0.3]]
        ids = np.full((len(concepts), 3), -1)
        padded = np.zeros((len(concepts), 3))
        for i, (row, w) in enumerate(zip(concepts, weights)):
            ids[i, :len(row)] = [names.index(c) for c in row]
            padded[i, :len(w)] = w
        got = world.image_latents(world.concept_matrix(names), ids, padded,
                                  rng=3, instance_scale=1.6)
        rng = np.random.default_rng(3)
        want = np.stack([
            _image_latent(world, row, w, rng, 1.6)
            for row, w in zip(concepts, weights)
        ])
        assert got.tobytes() == want.tobytes()

    def test_image_latent_is_the_one_row_case(self):
        world = SemanticWorld()
        got = world.image_latent(["cat", "sky"], np.array([1.0, 1.7]), rng=8,
                                 instance_scale=1.2)
        want = _image_latent(world, ["cat", "sky"], [1.0, 1.7],
                             np.random.default_rng(8), 1.2)
        assert got.shape == (world.config.latent_dim,)
        assert got.tobytes() == want.tobytes()

    def test_row_without_concepts_rejected(self):
        world = SemanticWorld()
        with pytest.raises(VocabularyError):
            world.image_latents(world.concept_matrix(["cat"]),
                                np.array([[0], [-1]]), np.ones((2, 1)))


def test_generation_heap_is_the_output_plus_one_chunk():
    """Nothing of per-row size outlives its chunk: the traced heap peak is
    what the dataset keeps plus at most one chunk's pixels, and that
    excess does not grow with the dataset."""
    spec = dataset_spec("cifar10")
    config = SemanticWorld().config
    # Untraced warm-up, so that lazy imports stay out of the trace.
    generate_dataset(spec, _ONE_CHUNK, seed=0)
    excess = []
    # Equal last chunks: the second dataset is eight chunks longer.
    for database in (4000, 4000 + 8 * _RENDER_CHUNK):
        sizes = SplitSizes(train=1500, query=100, database=database)
        world = SemanticWorld()
        tracemalloc.start()
        try:
            data = generate_dataset(spec, sizes, world=world, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (
            data.query_images.base, data.query_labels.base,
            data.train_images, data.train_labels,
        ))
        assert peak <= kept + _RENDER_CHUNK * config.n_pixels * 8
        excess.append(peak - kept)
    # A loop that kept every row's latent would grow by 1.6 MB here.
    assert excess[1] - excess[0] < _RENDER_CHUNK * config.latent_dim * 8

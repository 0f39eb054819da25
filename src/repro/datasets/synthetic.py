"""Synthetic dataset generator over the semantic world.

Each benchmark dataset is described by a :class:`DatasetSpec` — class
vocabulary, per-class marginal frequencies, per-class visual dominance, and a
pool of *unlabeled context concepts* (the stuff real photos contain that
annotators did not tag).  The generator samples label sets, builds image
latents as weighted concept mixtures, and renders pixels through the world's
fixed render matrix.

Design notes tied to the paper:

- Multi-label marginals are heavily skewed (``sky`` dominates NUS-WIDE and
  MIRFlickr, as in the real datasets); a dominant, visually heavy background
  class is exactly what triggers the paper's ``f(c) > 0.5 n`` concept-discard
  rule.
- Context concepts inject image content outside the evaluation labels, which
  is what makes the candidate-concept denoising problem non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.base import HashingDataset
from repro.datasets.splits import SplitSizes
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator, spawn
from repro.vlp.world import SemanticWorld

_RENDER_CHUNK = 512


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic benchmark dataset.

    Attributes
    ----------
    name:
        Dataset identifier.
    class_names:
        Evaluation label vocabulary (surface forms; the world resolves
        aliases).
    class_probs:
        Marginal probability of each class appearing in an image.  For
        single-label datasets these are the class-draw probabilities.
    dominance:
        Relative visual weight of each class when present (a big sky fills
        the frame; a bird is small).
    single_label:
        If true, exactly one class per image (CIFAR10).
    context_pool:
        Concepts that may appear in images *without being labeled*.
    context_weight:
        Visual weight of a context concept.
    context_count_probs:
        Distribution over how many context concepts an image gets.
    background_concept / background_prob / background_weight:
        An *unlabeled, ubiquitous, visually dominant* background concept
        (bright sky / sunlight in web photos).  It wins the VLP argmax for
        most images, triggering the paper's ``f(c) > 0.5 n`` discard rule —
        and because it is not an evaluation label, discarding it is exactly
        the right call ("useless for distinguishing the images").
    """

    name: str
    class_names: tuple[str, ...]
    class_probs: tuple[float, ...]
    dominance: tuple[float, ...] = ()
    single_label: bool = False
    context_pool: tuple[str, ...] = ()
    context_weight: float = 0.45
    context_count_probs: tuple[float, ...] = (1.0,)
    background_concept: str | None = None
    background_prob: float = 0.0
    background_weight: float = 2.0
    instance_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.class_names:
            raise ConfigurationError("class_names cannot be empty")
        if len(self.class_probs) != len(self.class_names):
            raise ConfigurationError(
                f"class_probs has {len(self.class_probs)} entries for "
                f"{len(self.class_names)} classes"
            )
        if any(not 0 < p <= 1 for p in self.class_probs):
            raise ConfigurationError("class_probs must lie in (0, 1]")
        if self.dominance and len(self.dominance) != len(self.class_names):
            raise ConfigurationError("dominance must match class_names length")
        if abs(sum(self.context_count_probs) - 1.0) > 1e-9:
            raise ConfigurationError("context_count_probs must sum to 1")
        if self.context_pool and not self.context_count_probs:
            raise ConfigurationError("context_pool given without count probs")
        if not 0.0 <= self.background_prob <= 1.0:
            raise ConfigurationError(
                f"background_prob must be in [0, 1]: {self.background_prob}"
            )
        if self.background_prob > 0 and not self.background_concept:
            raise ConfigurationError(
                "background_prob > 0 requires a background_concept"
            )

    @property
    def dominance_array(self) -> np.ndarray:
        if self.dominance:
            return np.asarray(self.dominance, dtype=np.float64)
        return np.ones(len(self.class_names))


@dataclass
class _SampledImage:
    label_mask: np.ndarray
    concepts: list[str] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)


def _sample_image(
    spec: DatasetSpec, rng: np.random.Generator
) -> _SampledImage:
    """Draw one image's label set, visible concepts, and mixture weights."""
    n_classes = len(spec.class_names)
    probs = np.asarray(spec.class_probs, dtype=np.float64)
    dominance = spec.dominance_array

    if spec.single_label:
        cls = int(rng.choice(n_classes, p=probs / probs.sum()))
        mask = np.zeros(n_classes, dtype=np.int8)
        mask[cls] = 1
        present = [cls]
    else:
        mask = (rng.random(n_classes) < probs).astype(np.int8)
        if mask.sum() == 0:
            cls = int(rng.choice(n_classes, p=probs / probs.sum()))
            mask[cls] = 1
        present = list(np.flatnonzero(mask))

    sample = _SampledImage(label_mask=mask)
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


def generate_dataset(
    spec: DatasetSpec,
    sizes: SplitSizes,
    world: SemanticWorld | None = None,
    seed: int | np.random.Generator | None = 0,
) -> HashingDataset:
    """Generate a full query/database/train dataset from a spec.

    Queries are disjoint from the database; the training set is sampled
    without replacement from the database (the paper's protocol).
    """
    world = world or SemanticWorld()
    master = as_generator(seed)
    label_rng, latent_rng, pixel_rng, split_rng = spawn(master, 4)

    total = sizes.total_generated
    n_classes = len(spec.class_names)
    labels = np.zeros((total, n_classes), dtype=np.int8)
    latents = np.zeros((total, world.config.latent_dim))
    for i in range(total):
        sample = _sample_image(spec, label_rng)
        labels[i] = sample.label_mask
        latents[i] = world.image_latent(
            sample.concepts,
            np.asarray(sample.weights),
            rng=latent_rng,
            instance_scale=spec.instance_scale,
        )

    # Each chunk renders into its slice of one preallocated array, so the
    # images are never held twice (a list of chunks plus their concatenation).
    c, s = world.config.channels, world.config.image_size
    images = np.empty((total, c, s, s))
    for start in range(0, total, _RENDER_CHUNK):
        images[start : start + _RENDER_CHUNK] = world.render(
            latents[start : start + _RENDER_CHUNK], rng=pixel_rng
        )

    query_images = images[: sizes.query]
    query_labels = labels[: sizes.query]
    database_images = images[sizes.query :]
    database_labels = labels[sizes.query :]
    train_indices = np.sort(
        split_rng.choice(sizes.database, size=sizes.train, replace=False)
    )

    return HashingDataset(
        name=spec.name,
        class_names=spec.class_names,
        train_images=database_images[train_indices],
        train_labels=database_labels[train_indices],
        query_images=query_images,
        query_labels=query_labels,
        database_images=database_images,
        database_labels=database_labels,
        train_indices=train_indices,
        world=world,
    )

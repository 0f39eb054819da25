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

from dataclasses import dataclass

import numpy as np

from repro.datasets.base import HashingDataset
from repro.datasets.splits import SplitSizes
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator, spawn
from repro.vlp.world import SemanticWorld

_RENDER_CHUNK = 512
#: Range of the per-class visual-weight jitter.
_JITTER = (0.85, 1.15)


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


def _choice_cdf(probs: np.ndarray | tuple[float, ...]) -> np.ndarray:
    """The cdf that ``Generator.choice(n, p=probs)`` searches.

    ``choice`` draws one ``random()`` and returns
    ``cdf.searchsorted(u, side="right")`` over this cdf, so drawing ``u``
    directly consumes the stream identically without ``choice``'s
    per-call validation.
    """
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


class _ChunkSampler:
    """A spec's per-image draws, computed once and then sampled per chunk.

    ``directions`` holds one latent direction per concept an image can
    show: the classes, then the background (if any), then the context
    pool.  :meth:`sample` returns each image's concepts as rows of ids
    into it, padded with ``-1``, and their weights.
    """

    def __init__(self, spec: DatasetSpec, world: SemanticWorld) -> None:
        self.spec = spec
        self.probs = np.asarray(spec.class_probs, dtype=np.float64)
        self.class_cdf = _choice_cdf(self.probs / self.probs.sum())
        self.count_cdf = _choice_cdf(spec.context_count_probs)
        self.dominance = spec.dominance_array
        background = (spec.background_concept,) if spec.background_concept else ()
        self.directions = world.concept_matrix(
            spec.class_names + background + spec.context_pool
        )
        self.background_id = len(spec.class_names)
        self.context_offset = len(spec.class_names) + len(background)
        max_context = min(len(spec.context_count_probs) - 1, len(spec.context_pool))
        self.width = (
            (1 if spec.single_label else len(spec.class_names))
            + len(background) + max_context
        )

    def sample(
        self, rng: np.random.Generator, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``len(labels)`` images' label sets into the zeroed
        ``labels`` rows; return their concept ids and weights.

        Every image draws, in order: its classes (one ``random()`` for a
        single label, else one per class plus one for the fallback class
        of an empty set), one jitter per class, then, if the spec has
        them, one background ``random()`` and its context count and picks.
        """
        spec = self.spec
        rows, n_classes = labels.shape
        ids = np.full((rows, self.width), -1, dtype=np.intp)
        weights = np.zeros((rows, self.width))
        if spec.single_label and not spec.context_pool:
            # A fixed number of doubles per image: draw the chunk's at once.
            # ``low + (high - low) * u`` is how ``Generator.uniform`` maps
            # its double to the jitter.
            u = rng.random((rows, 3 if spec.background_concept else 2))
            cls = self.class_cdf.searchsorted(u[:, 0], side="right")
            labels[np.arange(rows), cls] = 1
            ids[:, 0] = cls
            weights[:, 0] = self.dominance[cls] * (
                _JITTER[0] + (_JITTER[1] - _JITTER[0]) * u[:, 1]
            )
            if spec.background_concept:
                shown = u[:, 2] < spec.background_prob
                ids[shown, 1] = self.background_id
                weights[shown, 1] = spec.background_weight
            return ids, weights
        for r in range(rows):
            if spec.single_label:
                present = self.class_cdf.searchsorted([rng.random()], side="right")
            else:
                present = np.flatnonzero(rng.random(n_classes) < self.probs)
                if present.size == 0:
                    present = self.class_cdf.searchsorted(
                        [rng.random()], side="right")
            k = present.size
            labels[r, present] = 1
            ids[r, :k] = present
            weights[r, :k] = self.dominance[present] * rng.uniform(
                *_JITTER, size=k)
            if spec.background_concept and rng.random() < spec.background_prob:
                ids[r, k] = self.background_id
                weights[r, k] = spec.background_weight
                k += 1
            if spec.context_pool:
                n_context = int(
                    self.count_cdf.searchsorted(rng.random(), side="right"))
                if n_context > 0:
                    picks = rng.choice(
                        len(spec.context_pool),
                        size=min(n_context, len(spec.context_pool)),
                        replace=False,
                    )
                    ids[r, k : k + picks.size] = self.context_offset + picks
                    weights[r, k : k + picks.size] = spec.context_weight
        return ids, weights


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

    sampler = _ChunkSampler(spec, world)
    total = sizes.total_generated
    labels = np.zeros((total, len(spec.class_names)), dtype=np.int8)
    c, s = world.config.channels, world.config.image_size
    images = np.empty((total, c, s, s))
    # Each chunk samples its labels, mixes its latents and renders into its
    # slice of one preallocated array, so per-image work is batched and
    # nothing but the images and labels grows with the dataset.  Each of
    # the four streams is consumed in the order of a per-image loop, so
    # every array is byte-identical to that loop's.
    for start in range(0, total, _RENDER_CHUNK):
        stop = min(start + _RENDER_CHUNK, total)
        ids, weights = sampler.sample(label_rng, labels[start:stop])
        latents = world.image_latents(
            sampler.directions, ids, weights, rng=latent_rng,
            instance_scale=spec.instance_scale,
        )
        world.render(latents, rng=pixel_rng, out=images[start:stop])

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

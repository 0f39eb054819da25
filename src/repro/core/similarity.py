"""Semantic similarity matrix construction (paper §3.3, Eq. 3 and Eq. 6).

:class:`SemanticSimilarityGenerator` runs the full pipeline of Figure 1's
left half: mine concept distributions over the candidate set, denoise the
set (Eq. 4–5), re-mine over the clean set, and return the cosine-similarity
matrix Q of the final distributions (Eq. 6).  Flags expose every Table 2
similarity-side ablation: denoising off (row 7), raw image features
(row 3, ``UHSCM_IF``), alternative prompt templates (rows 4–5), template
averaging (row 6), and k-means concept clustering (rows 8–12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.denoising import DenoisingResult, denoise_concepts
from repro.core.mining import ConceptMiner, concept_distributions
from repro.core.similarity_matrix import (
    FactoredSimilarity,
    SimilarityMatrix,
    as_similarity_matrix,
    similarity_from_payload,
)
from repro.errors import ConfigurationError
from repro.pipeline import (
    BUILD_Q,
    DENOISE,
    MINE,
    ArtifactStore,
    Stage,
    canonical,
    run_stage,
)
from repro.utils.mathops import l2_normalize
from repro.vlp.clip import SimCLIP
from repro.vlp.prompts import PromptTemplate


def similarity_from_distributions(
    distributions: np.ndarray,
    dtype: np.dtype | str | None = None,
) -> FactoredSimilarity:
    """Eq. 3 / Eq. 6: pairwise cosine similarity of concept distributions.

    Returns the exact Q as its factor, a :class:`FactoredSimilarity` over
    the L2-normalised rows: ``n · m`` values, never n².  ``to_dense()`` is
    the (n, n) array this function used to return, bit for bit.
    """
    dist = np.asarray(
        distributions, dtype=np.float64 if dtype is None else dtype
    )
    if dist.ndim != 2:
        raise ConfigurationError(
            f"distributions must be (n, m), got {dist.shape}"
        )
    return FactoredSimilarity(l2_normalize(dist, dtype=dist.dtype))


def _q_payload(
    matrix: "np.ndarray | SimilarityMatrix", concepts
) -> tuple[dict, dict[str, np.ndarray]]:
    """The build_q artifact body for either Q form (dense layout unchanged)."""
    q_meta, q_arrays = as_similarity_matrix(matrix).payload()
    return {"concepts": list(concepts), **q_meta}, q_arrays


def _average(
    matrices: "list[np.ndarray | SimilarityMatrix]",
) -> "FactoredSimilarity | np.ndarray":
    """Template averaging (``UHSCM_avg``): the mean of per-template Q.

    Factored inputs stay factored, and their blocks average in template
    order.  A dense per-template Q (a replayed pre-factor artifact) makes
    the mean dense, computed exactly as before.
    """
    if all(isinstance(m, FactoredSimilarity) for m in matrices):
        return FactoredSimilarity(*(f for m in matrices for f in m.factors))
    return np.mean(
        [as_similarity_matrix(m).to_dense() for m in matrices], axis=0
    )


@dataclass
class SimilarityResult:
    """The similarity matrix Q plus provenance from the mining pipeline.

    ``matrix`` is a :class:`~repro.core.similarity_matrix.FactoredSimilarity`
    whenever a generator builds it, and a raw (n, n) array when a caller
    injects one or a dense artifact replays from a store;
    ``as_similarity_matrix`` wraps either for training.

    ``mined`` distinguishes a Q produced by the §3.3 pipeline (where
    ``concepts`` is the post-denoising set, possibly empty) from a Q that
    was *injected* by the caller and never mined at all; the two used to be
    indistinguishable after a save/load round trip.  ``fingerprint`` is the
    build_q stage address when the result came through an
    :class:`~repro.pipeline.ArtifactStore`, letting downstream train
    stages chain on it without re-hashing the matrix.
    """

    matrix: "np.ndarray | SimilarityMatrix"
    concepts: tuple[str, ...]
    denoising: DenoisingResult | None = None
    distributions: np.ndarray | None = field(default=None, repr=False)
    mined: bool = True
    fingerprint: str | None = None


class SemanticSimilarityGenerator:
    """Builds the paper's semantic similarity matrix Q from images.

    Q is held exactly as its (n, m) factor (Eq. 6).

    Parameters
    ----------
    clip:
        The (simulated) VLP model.
    concepts:
        Candidate concept set C (the paper uses the 81 NUS-WIDE names).
    templates:
        One or more prompt templates.  With several templates the per-
        template similarity matrices are averaged (the ``UHSCM_avg``
        ablation).
    tau_scale:
        τ multiplier for Eq. 2 (τ = tau_scale · m).
    denoise:
        Apply Eq. 4–5 between the two mining passes.
    """

    def __init__(
        self,
        clip: SimCLIP,
        concepts: tuple[str, ...] | list[str],
        templates: tuple[PromptTemplate | str | None, ...] = (None,),
        tau_scale: float = 1.0,
        denoise: bool = True,
    ) -> None:
        if not concepts:
            raise ConfigurationError("candidate concept set is empty")
        if not templates:
            raise ConfigurationError("at least one prompt template is required")
        self.clip = clip
        self.concepts = tuple(concepts)
        self.templates = templates
        self.tau_scale = tau_scale
        self.denoise = denoise

    def _generate_single(
        self, images: np.ndarray, template: PromptTemplate | str | None
    ) -> SimilarityResult:
        miner = ConceptMiner(self.clip, template=template, tau_scale=self.tau_scale)
        distributions = miner.mine(images, self.concepts)
        denoising: DenoisingResult | None = None
        concepts = self.concepts
        if self.denoise:
            denoising = denoise_concepts(self.concepts, distributions)
            concepts = denoising.kept_concepts
            # Second prompting pass over the clean set C' (Algorithm 1 step 4).
            distributions = miner.mine(images, concepts)
        return SimilarityResult(
            matrix=similarity_from_distributions(distributions),
            concepts=concepts,
            denoising=denoising,
            distributions=distributions,
        )

    # -- staged execution over an artifact store ---------------------------

    def _template_key(self, template: PromptTemplate | str | None) -> str:
        from repro.vlp.clip import resolve_template

        return resolve_template(template).template

    def _stage_params(self, data_key: dict) -> dict:
        """Everything upstream of mining that can change its output."""
        return {
            "data": dict(data_key),
            "world": canonical(self.clip.world.config),
            "tau_scale": self.tau_scale,
        }

    def _generate_single_staged(
        self,
        images: np.ndarray,
        template: PromptTemplate | str | None,
        store: ArtifactStore,
        data_key: dict,
    ) -> SimilarityResult:
        """mine → denoise → build_q, each step replayed from the store."""
        miner = ConceptMiner(self.clip, template=template, tau_scale=self.tau_scale)
        mine_stage = Stage(
            MINE,
            params={
                **self._stage_params(data_key),
                "concepts": list(self.concepts),
                "template": self._template_key(template),
            },
        )
        mine_art = run_stage(
            store,
            mine_stage,
            lambda: (
                {"concepts": list(self.concepts)},
                {"distributions": miner.mine(images, self.concepts)},
            ),
        )
        distributions = mine_art.arrays["distributions"]
        concepts = self.concepts
        denoising: DenoisingResult | None = None
        upstream = mine_stage
        if self.denoise:
            denoise_stage = Stage(DENOISE, inputs=(mine_stage.fingerprint,))

            def build_denoise() -> tuple[dict, dict[str, np.ndarray]]:
                result = denoise_concepts(self.concepts, distributions)
                kept = result.kept_concepts
                # Second prompting pass over the clean set C'.
                return (
                    {"kept_concepts": list(kept)},
                    {
                        "distributions": miner.mine(images, kept),
                        "kept_mask": result.kept_mask,
                        "frequencies": result.frequencies,
                    },
                )

            den_art = run_stage(store, denoise_stage, build_denoise)
            concepts = tuple(den_art.meta["kept_concepts"])
            denoising = DenoisingResult(
                original_concepts=self.concepts,
                kept_mask=den_art.arrays["kept_mask"].astype(bool),
                frequencies=den_art.arrays["frequencies"],
            )
            distributions = den_art.arrays["distributions"]
            upstream = denoise_stage
        q_stage = Stage(BUILD_Q, inputs=(upstream.fingerprint,))
        q_art = run_stage(
            store,
            q_stage,
            lambda: _q_payload(
                similarity_from_distributions(distributions), concepts
            ),
        )
        return SimilarityResult(
            matrix=similarity_from_payload(q_art.meta, q_art.arrays),
            concepts=concepts,
            denoising=denoising,
            distributions=distributions,
            fingerprint=q_art.key,
        )

    def generate(
        self,
        images: np.ndarray,
        store: ArtifactStore | None = None,
        data_key: dict | None = None,
    ) -> SimilarityResult:
        """Full §3.3 pipeline; averages Q across templates if several.

        With a ``store`` and a ``data_key`` (the provenance of ``images``,
        see :func:`repro.pipeline.dataset_key`) the pipeline runs staged:
        mine, denoise, and Q construction each replay from the store when a
        matching artifact exists, and the results are bit-identical to the
        direct path.  The caller owns the contract that ``data_key``
        uniquely identifies ``images``.
        """
        if store is not None and data_key is not None:
            results = [
                self._generate_single_staged(images, t, store, data_key)
                for t in self.templates
            ]
        else:
            results = [self._generate_single(images, t) for t in self.templates]
        if len(results) == 1:
            return results[0]
        if store is not None and data_key is not None:
            avg_stage = Stage(
                BUILD_Q,
                params={"op": "average"},
                inputs=tuple(r.fingerprint or "" for r in results),
            )
            avg_art = run_stage(
                store,
                avg_stage,
                lambda: _q_payload(
                    _average([r.matrix for r in results]),
                    results[0].concepts,
                ),
            )
            return SimilarityResult(
                matrix=similarity_from_payload(avg_art.meta, avg_art.arrays),
                concepts=results[0].concepts,
                denoising=results[0].denoising,
                distributions=None,
                fingerprint=avg_art.key,
            )
        return SimilarityResult(
            matrix=_average([r.matrix for r in results]),
            concepts=results[0].concepts,
            denoising=results[0].denoising,
            distributions=None,
        )


class ImageFeatureSimilarityGenerator:
    """The ``UHSCM_IF`` ablation: Q from raw VLP image-feature cosine.

    Skips concept mining entirely — this is the strategy of prior work
    (SSDH / MLS3RDUH style) that the paper argues against.  Q is held as
    its factor, the L2-normalised image features.
    """

    def __init__(self, clip: SimCLIP) -> None:
        self.clip = clip

    def _build_matrix(self, images: np.ndarray) -> FactoredSimilarity:
        return similarity_from_distributions(self.clip.image_features(images))

    def generate(
        self,
        images: np.ndarray,
        store: ArtifactStore | None = None,
        data_key: dict | None = None,
    ) -> SimilarityResult:
        if store is not None and data_key is not None:
            stage = Stage(
                BUILD_Q,
                params={
                    "kind": "image-features",
                    "data": dict(data_key),
                    "world": canonical(self.clip.world.config),
                },
            )
            art = run_stage(
                store, stage,
                lambda: _q_payload(self._build_matrix(images), ()),
            )
            return SimilarityResult(
                matrix=similarity_from_payload(art.meta, art.arrays),
                concepts=(),
                fingerprint=art.key,
            )
        return SimilarityResult(
            matrix=self._build_matrix(images),
            concepts=(),
            denoising=None,
            distributions=None,
        )


class ClusteredConceptSimilarityGenerator:
    """The ``UHSCM_cN`` ablations: k-means concept clusters as final concepts.

    The candidate concepts' *text embeddings* are clustered; each centroid
    acts as one final concept, and images are scored against centroids
    directly (the clustering replacement for Eq. 4–5 denoising studied in
    Table 2 rows 8–12).
    """

    def __init__(
        self,
        clip: SimCLIP,
        concepts: tuple[str, ...] | list[str],
        n_clusters: int,
        template: PromptTemplate | str | None = None,
        tau_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive: {n_clusters}")
        if n_clusters > len(concepts):
            raise ConfigurationError(
                f"n_clusters ({n_clusters}) exceeds concept count ({len(concepts)})"
            )
        self.clip = clip
        self.concepts = tuple(concepts)
        self.n_clusters = n_clusters
        self.template = template
        self.tau_scale = tau_scale
        self.seed = seed

    def generate(
        self,
        images: np.ndarray,
        store: ArtifactStore | None = None,
        data_key: dict | None = None,
    ) -> SimilarityResult:
        from repro.analysis.kmeans import kmeans  # local: avoids import cycle
        from repro.vlp.clip import resolve_template

        template = resolve_template(self.template)
        concepts = tuple(f"cluster_{i}" for i in range(self.n_clusters))

        def build() -> tuple[dict, dict[str, np.ndarray]]:
            # Embed the concept prompts, cluster them, use centroids as
            # concepts.
            text_emb = self.clip.encode_texts(
                template.format_all(list(self.concepts))
            )
            result = kmeans(text_emb, self.n_clusters, seed=self.seed)
            centroids = result.centroids / np.maximum(
                np.linalg.norm(result.centroids, axis=1, keepdims=True), 1e-12
            )
            image_emb = self.clip.encode_images(images)
            scores = (np.clip(image_emb @ centroids.T, -1.0, 1.0) + 1.0) / 2.0
            tau = self.tau_scale * self.n_clusters
            distributions = concept_distributions(scores, tau)
            meta, arrays = _q_payload(
                similarity_from_distributions(distributions), concepts
            )
            arrays["distributions"] = distributions
            return meta, arrays

        if store is not None and data_key is not None:
            stage = Stage(
                BUILD_Q,
                params={
                    "kind": "clustered",
                    "data": dict(data_key),
                    "world": canonical(self.clip.world.config),
                    "concepts": list(self.concepts),
                    "template": template.template,
                    "n_clusters": self.n_clusters,
                    "tau_scale": self.tau_scale,
                    "seed": self.seed,
                },
            )
            art = run_stage(store, stage, build)
            return SimilarityResult(
                matrix=similarity_from_payload(art.meta, art.arrays),
                concepts=concepts,
                distributions=art.arrays["distributions"],
                fingerprint=art.key,
            )
        meta, arrays = build()
        return SimilarityResult(
            matrix=similarity_from_payload(meta, arrays),
            concepts=concepts,
            denoising=None,
            distributions=arrays["distributions"],
        )

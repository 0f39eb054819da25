"""UHSCM — the paper's full method, end to end (Algorithm 1).

Pipeline (Figure 1):

1. mine concept distributions of the training images over a candidate
   concept set via the VLP model with prompting (Eq. 1–2);
2. denoise the concept set (Eq. 4–5) and re-mine over the clean set;
3. build the semantic similarity matrix Q (Eq. 6);
4. train the hashing network against Q with the Eq. 11 objective;
5. ``encode`` maps images to ±1 hash codes via ``sign``.

Usage::

    from repro import UHSCM, paper_config
    model = UHSCM(paper_config("cifar10", n_bits=64))
    model.fit(train_images)
    codes = model.encode(query_images)
"""

from __future__ import annotations

import numpy as np

from repro.config import UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity import (
    SemanticSimilarityGenerator,
    SimilarityResult,
)
from repro.core.similarity_matrix import (
    SimilarityMatrix,
    similarity_fingerprint,
)
from repro.core.trainer import TrainHistory, UHSCMTrainer
from repro.errors import NotFittedError
from repro.pipeline import (
    TRAIN,
    ArtifactStore,
    Stage,
    canonical,
    run_stage,
)
from repro.vlp.clip import SimCLIP
from repro.vlp.concepts import NUS_WIDE_81


class UHSCM:
    """Unsupervised Hashing with Semantic Concept Mining.

    Parameters
    ----------
    config:
        Hyper-parameters (see :func:`repro.paper_config` for the per-dataset
        values selected in §4.6).
    clip:
        The VLP model; a default :class:`SimCLIP` is created if omitted.
        Pass the SimCLIP built over your dataset's world for meaningful
        scores.
    concepts:
        Candidate concept set C; the paper's default is the 81 NUS-WIDE
        names for every dataset.
    similarity_generator:
        Override for the Q-construction strategy (used by the Table 2
        ablation variants); defaults to the full §3.3 pipeline honouring
        ``config.denoise`` and ``config.prompt_template``.
    """

    def __init__(
        self,
        config: UHSCMConfig | None = None,
        clip: SimCLIP | None = None,
        concepts: tuple[str, ...] = NUS_WIDE_81,
        similarity_generator=None,
        contrastive: str = "mcl",
        store: ArtifactStore | None = None,
    ) -> None:
        self.config = config or UHSCMConfig()
        self.clip = clip or SimCLIP()
        self.concepts = tuple(concepts)
        self.similarity_generator = similarity_generator or (
            SemanticSimilarityGenerator(
                self.clip,
                self.concepts,
                templates=(self.config.prompt_template,),
                tau_scale=self.config.tau_scale,
                denoise=self.config.denoise,
            )
        )
        self.contrastive = contrastive
        self.store = store
        self.network: HashingNetwork | None = None
        self.similarity_: SimilarityResult | None = None
        self.history_: TrainHistory | None = None

    # -- construction helpers -------------------------------------------------

    def _build_network(self, images: np.ndarray) -> HashingNetwork:
        # The paper fine-tunes the whole VGG19; the equivalent here is a
        # head over the lossless trainable-backbone features (see
        # SemanticWorld.backbone_features).
        extractor = self.clip.world.backbone_features
        return HashingNetwork(
            self.config.n_bits,
            feature_extractor=extractor,
            feature_dim=extractor(images[:1]).shape[1],
            rng=self.config.seed,
        )

    # -- the public API ---------------------------------------------------------

    def fit(
        self,
        images: np.ndarray,
        similarity: "np.ndarray | SimilarityMatrix | SimilarityResult | None" = None,
        epochs: int | None = None,
        store: ArtifactStore | None = None,
        data_key: dict | None = None,
    ) -> "UHSCM":
        """Run Algorithm 1 on unlabeled training images.

        ``similarity`` lets callers inject a precomputed Q (used by
        hyper-parameter sweeps to avoid re-mining); by default it is
        generated by the §3.3 pipeline.  An injected raw matrix is
        recorded with ``similarity_.mined = False`` so it cannot
        masquerade as "mined zero concepts" after a save/load round trip;
        an injected :class:`SimilarityResult` keeps its provenance (and
        its Q fingerprint, so staged fits chain on it without re-hashing
        the matrix).

        With a ``store`` (or one passed at construction) and a ``data_key``
        identifying ``images`` (see :func:`repro.pipeline.dataset_key`),
        Algorithm 1 runs as fingerprinted pipeline stages: the mine /
        denoise / build_q chain is shared across every fit with the same
        similarity settings (Q does not depend on ``n_bits``), and the
        training stage itself replays from the store when an identical
        configuration already trained to completion.
        """
        store = store if store is not None else self.store
        if not isinstance(images, np.memmap):
            # A memmapped corpus stays disk-resident; downstream consumers
            # (feature extraction, the trainer) slice and cast per batch.
            images = np.asarray(images, dtype=np.float64)
        staged = store is not None and data_key is not None
        if similarity is None:
            if staged:
                self.similarity_ = self.similarity_generator.generate(
                    images, store=store, data_key=data_key
                )
            else:
                self.similarity_ = self.similarity_generator.generate(images)
            q = self.similarity_.matrix
        elif isinstance(similarity, SimilarityResult):
            self.similarity_ = similarity
            q = similarity.matrix
            if not isinstance(q, SimilarityMatrix):
                q = np.asarray(q, dtype=np.float64)
        elif isinstance(similarity, SimilarityMatrix):
            q = similarity
            self.similarity_ = SimilarityResult(matrix=q, concepts=(),
                                                mined=False)
        else:
            q = np.asarray(similarity, dtype=np.float64)
            self.similarity_ = SimilarityResult(matrix=q, concepts=(),
                                                mined=False)
        if not staged:
            self._train(images, q, epochs)
            return self

        self.network = None  # a prior fit must not mask a train-stage hit
        self.history_ = None
        q_fingerprint = self.similarity_.fingerprint
        params = {
            "data": dict(data_key),
            "world": canonical(self.clip.world.config),
            "config": canonical(self.config),
            "contrastive": self.contrastive,
            "epochs": epochs,
        }
        if q_fingerprint is None:
            # Injected or unstaged Q: fold its content hash in directly
            # (works for every Q form).
            params["q"] = similarity_fingerprint(q)
        stage = Stage(
            TRAIN,
            params=params,
            inputs=(q_fingerprint,) if q_fingerprint is not None else (),
        )

        def build() -> tuple[dict, dict[str, np.ndarray]]:
            self._train(images, q, epochs)
            assert self.network is not None and self.history_ is not None
            history = self.history_
            return (
                {
                    "history": {
                        "total": history.total,
                        "similarity": history.similarity,
                        "contrastive": history.contrastive,
                        "quantization": history.quantization,
                        "batches": history.batches,
                    },
                },
                {f"param/{k}": v
                 for k, v in self.network.net.state_dict().items()},
            )

        artifact = run_stage(store, stage, build)
        if self.network is None:  # cache hit: rebuild the net, skip training
            self.network = self._build_network(images)
            if self.config.train.dtype != "float64":
                # A fitted network lives in the training dtype; match it so
                # replayed codes are bit-identical to the trained ones.
                self.network.to(self.config.train.dtype)
            self.network.net.load_state_dict(
                {key[len("param/"):]: value
                 for key, value in artifact.arrays.items()
                 if key.startswith("param/")}
            )
            self.history_ = TrainHistory(**artifact.meta["history"])
        return self

    def _train(
        self,
        images: np.ndarray,
        q: "np.ndarray | SimilarityMatrix",
        epochs: int | None,
    ) -> None:
        """Steps 5–12 of Algorithm 1: build the network and optimize it."""
        self.network = self._build_network(images)
        trainer = UHSCMTrainer(self.network, self.config,
                               contrastive=self.contrastive)
        inputs = self.network.prepare_inputs(images)
        self.history_ = trainer.fit(inputs, q, epochs=epochs)

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Binary ±1 hash codes of shape (n, k).

        The network casts and forwards the images one bounded batch at a
        time, so a memmapped corpus is never copied to the heap whole.
        """
        if self.network is None:
            raise NotFittedError("UHSCM.encode called before fit")
        return self.network.encode(images)

    def relaxed_codes(self, images: np.ndarray) -> np.ndarray:
        """Tanh outputs z in [-1, 1]^k (before binarization)."""
        if self.network is None:
            raise NotFittedError("UHSCM.relaxed_codes called before fit")
        return self.network.relaxed_codes(images)

    @property
    def mined_concepts(self) -> tuple[str, ...]:
        """The concept set actually used for Q (post-denoising).

        Empty both when mining genuinely kept zero concepts and when Q was
        injected; check :attr:`concepts_mined` to tell the two apart.
        """
        if self.similarity_ is None:
            raise NotFittedError("UHSCM not fitted yet")
        return self.similarity_.concepts

    @property
    def concepts_mined(self) -> bool:
        """Whether Q came from the §3.3 mining pipeline (vs. injected)."""
        if self.similarity_ is None:
            raise NotFittedError("UHSCM not fitted yet")
        return self.similarity_.mined

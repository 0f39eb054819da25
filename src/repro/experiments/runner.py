"""Shared machinery for the experiment runners.

The paper's evaluation (§4.1) compares ten methods on three datasets at four
code lengths.  :class:`ExperimentContext` owns the dataset + SimCLIP pair
for one dataset at one scale and knows how to fit any method by Table 1 name
and produce its query/database codes, so each table/figure runner is a thin
loop.

Fitting runs through the staged pipeline: when the context holds an
:class:`~repro.pipeline.ArtifactStore`, every fit is an ``encode`` stage
whose artifact (query + database codes) persists on disk, UHSCM fits share
one mine → denoise → build_q chain per dataset across all bit widths and
all variants with the same similarity settings, and a killed table run
resumes from its completed (method, n_bits) cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import BASELINES, make_baseline
from repro.config import UHSCMConfig, paper_config
from repro.core.uhscm import UHSCM
from repro.core.variants import get_variant
from repro.datasets import HashingDataset, load_dataset
from repro.errors import ConfigurationError
from repro.pipeline import ENCODE, ArtifactStore, Stage, dataset_key, run_stage
from repro.retrieval import RetrievalReport, evaluate_codes
from repro.utils.timer import Timer
from repro.vlp import SimCLIP

#: Table 1 method order (paper rows top to bottom).
TABLE1_METHODS: tuple[str, ...] = (
    "LSH", "SH", "ITQ", "AGH", "SSDH", "GH", "BGAN", "MLS3RDUH", "CIB",
    "UHSCM",
)

_SHALLOW = frozenset({"LSH", "SH", "ITQ", "AGH"})


@dataclass
class FitResult:
    """Codes + timing for one fitted method on one dataset at one bit width.

    ``fit_seconds`` for a fit replayed from the artifact store is the wall
    time recorded when the cell originally trained, not the replay cost.
    """

    method: str
    n_bits: int
    query_codes: np.ndarray
    database_codes: np.ndarray
    fit_seconds: float


@dataclass
class ExperimentContext:
    """One dataset (with its world and SimCLIP) plus a code cache."""

    dataset_name: str
    scale: float = 0.02
    seed: int = 0
    epochs: int | None = None
    #: Optional artifact store making fits resumable and Q shareable across
    #: bit widths; None keeps the purely in-process cache.
    store: ArtifactStore | None = None
    dataset: HashingDataset = field(init=False)
    clip: SimCLIP = field(init=False)
    _cache: dict[tuple[str, int], FitResult] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dataset = load_dataset(self.dataset_name, scale=self.scale,
                                    seed=self.seed)
        self.clip = SimCLIP(self.dataset.world)

    # -- pipeline provenance -----------------------------------------------

    def data_key(self) -> dict:
        """Provenance of this context's training split for stage fingerprints."""
        return dataset_key(self.dataset_name, self.scale, self.seed)

    def _fit_stage(self, label: str, n_bits: int) -> Stage:
        return Stage(
            ENCODE,
            params={
                "data": self.data_key(),
                "method": label,
                "n_bits": n_bits,
                "epochs": self.epochs,
            },
        )

    # -- method construction ---------------------------------------------------

    def build_method(self, name: str, n_bits: int):
        """Instantiate a Table 1 method (baseline or UHSCM) ready to fit."""
        world = self.dataset.world
        if name.upper() == "UHSCM":
            return UHSCM(self.uhscm_config(n_bits), clip=self.clip)
        if name in _SHALLOW or name.upper() in _SHALLOW:
            return make_baseline(name, n_bits, world.vgg_features,
                                 seed=self.seed)
        kwargs = {}
        if self.epochs is not None:
            kwargs["epochs"] = self.epochs
        return make_baseline(
            name,
            n_bits,
            world.backbone_features,
            seed=self.seed,
            guidance_extractor=world.vgg_features,
            augment_fn=lambda f, rng: world.augment_features(f, rng),
            **kwargs,
        )

    def uhscm_config(self, n_bits: int) -> UHSCMConfig:
        from dataclasses import replace

        config = paper_config(self.dataset_name, n_bits=n_bits, seed=self.seed)
        if self.epochs is not None:
            config = replace(config, train=replace(config.train,
                                                   epochs=self.epochs))
        return config

    def build_variant(self, key: str, n_bits: int) -> UHSCM:
        """Instantiate a Table 2 UHSCM variant by row key."""
        model = get_variant(key)(self.uhscm_config(n_bits), self.clip)
        return model

    # -- fitting ----------------------------------------------------------------

    def _fit_model(self, model, use_store: bool) -> float:
        """Fit ``model`` on the training split; returns wall seconds."""
        timer = Timer()
        with timer:
            if use_store and isinstance(model, UHSCM):
                # The staged path shares the mined Q across every fit with
                # the same similarity settings and replays finished
                # train stages.
                model.fit(self.dataset.train_images, store=self.store,
                          data_key=self.data_key())
            else:
                model.fit(self.dataset.train_images)
        return timer.elapsed

    def _staged_fit(
        self, label: str, n_bits: int, make_model, use_cache: bool
    ) -> FitResult:
        """Fit + encode through the artifact store (when one is attached)."""
        use_store = use_cache and self.store is not None
        stage = self._fit_stage(label, n_bits)

        def build() -> tuple[dict, dict[str, np.ndarray]]:
            model = make_model()
            elapsed = self._fit_model(model, use_store)
            return (
                {"method": label, "n_bits": n_bits, "fit_seconds": elapsed},
                {
                    "query_codes": model.encode(self.dataset.query_images),
                    "database_codes": model.encode(
                        self.dataset.database_images
                    ),
                },
            )

        artifact = run_stage(self.store if use_store else None, stage, build)
        return FitResult(
            method=label,
            n_bits=n_bits,
            query_codes=artifact.arrays["query_codes"],
            database_codes=artifact.arrays["database_codes"],
            fit_seconds=artifact.meta["fit_seconds"],
        )

    def fit(self, name: str, n_bits: int, use_cache: bool = True) -> FitResult:
        """Fit a method and encode query + database splits (cached).

        ``use_cache=False`` bypasses both the in-process cache and the
        artifact store (Table 3 times fits, so a replayed artifact or a
        pre-mined Q would corrupt its numbers).
        """
        key = (name, n_bits)
        if use_cache and key in self._cache:
            return self._cache[key]
        result = self._staged_fit(
            name, n_bits, lambda: self.build_method(name, n_bits), use_cache
        )
        if use_cache:
            self._cache[key] = result
        return result

    def fit_variant(
        self, variant: str, n_bits: int, use_cache: bool = True
    ) -> FitResult:
        """Fit a Table 2 variant and encode both splits (cached like fit)."""
        label = f"variant:{variant}"
        key = (label, n_bits)
        if use_cache and key in self._cache:
            return self._cache[key]
        result = self._staged_fit(
            label, n_bits, lambda: self.build_variant(variant, n_bits),
            use_cache,
        )
        if use_cache:
            self._cache[key] = result
        return result

    def evaluate(self, fit: FitResult, **kwargs) -> RetrievalReport:
        """Run the full §4.2 evaluation on a fit's codes."""
        return evaluate_codes(
            fit.query_codes,
            fit.database_codes,
            self.dataset.query_labels,
            self.dataset.database_labels,
            **kwargs,
        )

    def evaluate_model(self, model, **kwargs) -> RetrievalReport:
        """Evaluate an already-fitted model object (used by Figure 4)."""
        return evaluate_codes(
            model.encode(self.dataset.query_images),
            model.encode(self.dataset.database_images),
            self.dataset.query_labels,
            self.dataset.database_labels,
            **kwargs,
        )


def make_contexts(
    datasets: tuple[str, ...],
    scale: float,
    seed: int = 0,
    epochs: int | None = None,
    store: ArtifactStore | None = None,
) -> dict[str, ExperimentContext]:
    """Build one context per dataset."""
    if not datasets:
        raise ConfigurationError("no datasets requested")
    return {
        name: ExperimentContext(name, scale=scale, seed=seed, epochs=epochs,
                                store=store)
        for name in datasets
    }

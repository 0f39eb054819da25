"""Reproduction of *Unsupervised Hashing with Semantic Concept Mining* (UHSCM).

The package is organized as the paper's system plus every substrate it
depends on:

- :mod:`repro.nn` — a from-scratch numpy neural-network framework.
- :mod:`repro.vlp` — SimCLIP, a simulated vision-language pre-training model.
- :mod:`repro.datasets` — synthetic analogues of CIFAR10 / NUS-WIDE / MIRFlickr.
- :mod:`repro.core` — the UHSCM method (mining, denoising, similarity, losses,
  trainer) and its ablation variants.
- :mod:`repro.baselines` — the nine unsupervised hashing baselines of Table 1.
- :mod:`repro.retrieval` — Hamming retrieval engine and evaluation metrics.
- :mod:`repro.serving` — the online serving layer: sharded indexes,
  micro-batched encoding, and store-backed model/index snapshots.
- :mod:`repro.analysis` — k-means, t-SNE, and cluster-separation analysis.
- :mod:`repro.pipeline` — staged Algorithm-1 execution over a
  content-addressed artifact store (Q reuse, resumable experiment runs).
- :mod:`repro.experiments` — runners regenerating every table and figure.

Quickstart::

    from repro import UHSCM, paper_config
    from repro.datasets import load_dataset
    from repro.retrieval import evaluate_hashing

    data = load_dataset("cifar10", scale=0.05, seed=7)
    model = UHSCM(paper_config("cifar10", n_bits=64))
    model.fit(data.train_images)
    report = evaluate_hashing(model, data)
    print(report.map)
"""

from repro.config import (
    DEFAULT_PROMPT_TEMPLATE,
    PAPER_BIT_LENGTHS,
    TrainConfig,
    UHSCMConfig,
    paper_config,
)
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    NotFittedError,
    ReproError,
    ShapeError,
    VocabularyError,
)
from repro.pipeline import ArtifactStore, dataset_key

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_PROMPT_TEMPLATE",
    "PAPER_BIT_LENGTHS",
    "ArtifactStore",
    "ConfigurationError",
    "ConvergenceError",
    "DenseSimilarity",
    "FactoredSimilarity",
    "NotFittedError",
    "ReproError",
    "ShapeError",
    "SimilarityMatrix",
    "SparseTopKSimilarity",
    "TrainConfig",
    "UHSCM",
    "UHSCMConfig",
    "VocabularyError",
    "dataset_key",
    "paper_config",
]


def __getattr__(name: str):
    # Lazy import so `import repro` stays light and avoids import cycles.
    if name == "UHSCM":
        from repro.core.uhscm import UHSCM

        return UHSCM
    if name in ("SimilarityMatrix", "DenseSimilarity", "FactoredSimilarity",
                "SparseTopKSimilarity"):
        from repro.core import similarity_matrix

        return getattr(similarity_matrix, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

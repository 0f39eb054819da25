"""The paper's primary contribution: UHSCM and its components."""

from repro.core.denoising import (
    DenoisingResult,
    concept_frequencies,
    denoise_concepts,
    keep_mask,
)
from repro.core.hashing_network import HashingNetwork
from repro.core.losses import (
    LossBreakdown,
    cib_contrastive_loss,
    cib_objective,
    modified_contrastive_loss,
    quantization_loss,
    similarity_preserving_loss,
    uhscm_objective,
)
from repro.core.mining import ConceptMiner, concept_distributions
from repro.core.persistence import load_uhscm, save_uhscm
from repro.core.similarity import (
    ClusteredConceptSimilarityGenerator,
    ImageFeatureSimilarityGenerator,
    SemanticSimilarityGenerator,
    SimilarityResult,
    similarity_from_distributions,
)
from repro.core.similarity_matrix import (
    DenseSimilarity,
    FactoredSimilarity,
    SimilarityMatrix,
    SparseTopKSimilarity,
    as_similarity_matrix,
    similarity_fingerprint,
    similarity_from_payload,
)
from repro.core.trainer import TrainHistory, UHSCMTrainer
from repro.core.uhscm import UHSCM
from repro.core.variants import VARIANTS, get_variant, make_uhscm

__all__ = [
    "ClusteredConceptSimilarityGenerator",
    "ConceptMiner",
    "DenoisingResult",
    "DenseSimilarity",
    "FactoredSimilarity",
    "HashingNetwork",
    "ImageFeatureSimilarityGenerator",
    "LossBreakdown",
    "SemanticSimilarityGenerator",
    "SimilarityMatrix",
    "SimilarityResult",
    "SparseTopKSimilarity",
    "TrainHistory",
    "UHSCM",
    "UHSCMTrainer",
    "VARIANTS",
    "as_similarity_matrix",
    "cib_contrastive_loss",
    "cib_objective",
    "concept_distributions",
    "concept_frequencies",
    "denoise_concepts",
    "get_variant",
    "keep_mask",
    "load_uhscm",
    "make_uhscm",
    "save_uhscm",
    "modified_contrastive_loss",
    "quantization_loss",
    "similarity_fingerprint",
    "similarity_from_distributions",
    "similarity_from_payload",
    "similarity_preserving_loss",
    "uhscm_objective",
]

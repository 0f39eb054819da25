"""Factories for UHSCM and the 14 ablation variants of Table 2.

Every factory takes ``(config, clip)`` and returns a ready-to-fit model, so
the Table 2 experiment is a loop over this registry.  Row numbers follow the
paper:

====  ==================  ============================================
row   key                 change vs. full UHSCM
====  ==================  ============================================
1     coco                candidate concepts = 80 MS COCO categories
2     nus&coco            candidate concepts = 153-name union
3     if                  Q from raw CLIP image features (no mining)
4     p1                  prompt template "the {concept}"
5     p2                  prompt template "it contains the {concept}"
6     avg                 Q averaged over the three templates
7     wo_de               no concept denoising
8–12  c20 … c60           k-means concept clustering instead of Eq. 4–5
13    wo_mcl              no modified contrastive loss (α = 0)
14    cl                  CIB's view contrastive loss J_c instead of L_c
—     ours                the full method
====  ==================  ============================================
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.config import UHSCMConfig
from repro.core.similarity import (
    ClusteredConceptSimilarityGenerator,
    ImageFeatureSimilarityGenerator,
    SemanticSimilarityGenerator,
)
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError
from repro.vlp.clip import SimCLIP
from repro.vlp.concepts import COCO_80, NUS_WIDE_81, union_vocabulary
from repro.vlp.prompts import PAPER_TEMPLATES

VariantFactory = Callable[[UHSCMConfig, SimCLIP], UHSCM]


def make_uhscm(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 'Ours': the full method (NUS-WIDE-81 candidates, denoising, MCL)."""
    return UHSCM(config, clip=clip, concepts=NUS_WIDE_81)


def make_coco(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 1: MS COCO categories as the candidate concept set."""
    return UHSCM(config, clip=clip, concepts=COCO_80)


def make_nus_coco(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 2: the 153-concept NUS-WIDE ∪ COCO candidate set."""
    return UHSCM(config, clip=clip,
                 concepts=union_vocabulary(NUS_WIDE_81, COCO_80))


def make_if(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 3 (UHSCM_IF): similarity from raw CLIP image features."""
    return UHSCM(
        config,
        clip=clip,
        similarity_generator=ImageFeatureSimilarityGenerator(
            clip, sparse_topk=config.sparse_topk
        ),
    )


def _make_prompt_variant(template_key: str) -> VariantFactory:
    template = PAPER_TEMPLATES[template_key]

    def factory(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
        return UHSCM(
            replace(config, prompt_template=template), clip=clip,
            concepts=NUS_WIDE_81,
        )

    factory.__doc__ = f"Prompt-template variant: {template!r}."
    return factory


make_p1 = _make_prompt_variant("p1")
make_p2 = _make_prompt_variant("p2")


def make_avg(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 6 (UHSCM_avg): Q averaged across the three prompt templates.

    Template averaging mixes exact per-template Q (their factors), so this
    variant always builds the exact Q — ``config.sparse_topk`` is
    deliberately cleared, keeping sparse Table 2 sweeps able to run every
    row and its cached cells valid across the toggle (constructing a
    multi-template generator with ``sparse_topk`` directly still raises).
    """
    config = replace(config, sparse_topk=None)
    generator = SemanticSimilarityGenerator(
        clip,
        NUS_WIDE_81,
        templates=tuple(PAPER_TEMPLATES.values()),
        tau_scale=config.tau_scale,
        denoise=config.denoise,
    )
    return UHSCM(config, clip=clip, concepts=NUS_WIDE_81,
                 similarity_generator=generator)


def make_wo_de(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 7 (UHSCM_w/o de): skip Eq. 4–5 concept denoising."""
    return UHSCM(replace(config, denoise=False), clip=clip, concepts=NUS_WIDE_81)


def _make_cluster_variant(n_clusters: int) -> VariantFactory:
    def factory(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
        generator = ClusteredConceptSimilarityGenerator(
            clip,
            NUS_WIDE_81,
            n_clusters=n_clusters,
            template=config.prompt_template,
            tau_scale=config.tau_scale,
            seed=config.seed,
            sparse_topk=config.sparse_topk,
        )
        return UHSCM(config, clip=clip, similarity_generator=generator)

    factory.__doc__ = f"Rows 8–12 (UHSCM_c{n_clusters}): k-means clustering."
    return factory


make_c20 = _make_cluster_variant(20)
make_c30 = _make_cluster_variant(30)
make_c40 = _make_cluster_variant(40)
make_c50 = _make_cluster_variant(50)
make_c60 = _make_cluster_variant(60)


def make_wo_mcl(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 13 (UHSCM_w/o MCL): drop the contrastive regularizer (α = 0)."""
    return UHSCM(replace(config, alpha=0.0), clip=clip, concepts=NUS_WIDE_81)


def make_cl(config: UHSCMConfig, clip: SimCLIP) -> UHSCM:
    """Row 14 (UHSCM_CL): replace L_c with CIB's view-based J_c (Eq. 10)."""
    return UHSCM(config, clip=clip, concepts=NUS_WIDE_81, contrastive="cib")


#: Table 2 registry in paper row order ("ours" last, as printed).
VARIANTS: dict[str, VariantFactory] = {
    "coco": make_coco,
    "nus&coco": make_nus_coco,
    "if": make_if,
    "p1": make_p1,
    "p2": make_p2,
    "avg": make_avg,
    "wo_de": make_wo_de,
    "c20": make_c20,
    "c30": make_c30,
    "c40": make_c40,
    "c50": make_c50,
    "c60": make_c60,
    "wo_mcl": make_wo_mcl,
    "cl": make_cl,
    "ours": make_uhscm,
}


def get_variant(key: str) -> VariantFactory:
    """Look up a Table 2 variant factory by key."""
    normalized = key.strip().lower()
    if normalized not in VARIANTS:
        raise ConfigurationError(
            f"unknown variant {key!r}; options: {sorted(VARIANTS)}"
        )
    return VARIANTS[normalized]

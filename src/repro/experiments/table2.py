"""Table 2: MAPs of UHSCM and its fourteen ablation variants.

The rows (paper §4.4) probe every design decision: candidate vocabulary
(1–2), concept mining vs. raw features (3), prompt templates (4–6),
denoising vs. clustering (7–12), and the modified contrastive loss (13–14).
"""

from __future__ import annotations

from repro.core.variants import VARIANTS
from repro.datasets import DATASET_NAMES
from repro.experiments.reporting import MapTable
from repro.experiments.runner import make_contexts

#: Paper Table 2 values at 64 bits (used in EXPERIMENTS.md's index).
PAPER_TABLE2_64BITS: dict[str, dict[str, float]] = {
    "coco": {"cifar10": 0.866, "nuswide": 0.785, "mirflickr": 0.809},
    "nus&coco": {"cifar10": 0.865, "nuswide": 0.805, "mirflickr": 0.824},
    "if": {"cifar10": 0.776, "nuswide": 0.795, "mirflickr": 0.792},
    "p1": {"cifar10": 0.841, "nuswide": 0.798, "mirflickr": 0.815},
    "p2": {"cifar10": 0.846, "nuswide": 0.789, "mirflickr": 0.800},
    "avg": {"cifar10": 0.851, "nuswide": 0.805, "mirflickr": 0.824},
    "wo_de": {"cifar10": 0.780, "nuswide": 0.805, "mirflickr": 0.827},
    "c20": {"cifar10": 0.456, "nuswide": 0.764, "mirflickr": 0.773},
    "c30": {"cifar10": 0.543, "nuswide": 0.766, "mirflickr": 0.792},
    "c40": {"cifar10": 0.620, "nuswide": 0.803, "mirflickr": 0.798},
    "c50": {"cifar10": 0.691, "nuswide": 0.781, "mirflickr": 0.817},
    "c60": {"cifar10": 0.697, "nuswide": 0.780, "mirflickr": 0.806},
    "wo_mcl": {"cifar10": 0.715, "nuswide": 0.801, "mirflickr": 0.819},
    "cl": {"cifar10": 0.800, "nuswide": 0.801, "mirflickr": 0.826},
    "ours": {"cifar10": 0.850, "nuswide": 0.810, "mirflickr": 0.834},
}


def run_table2(
    scale: float = 0.02,
    bit_lengths: tuple[int, ...] = (32, 64),
    datasets: tuple[str, ...] = DATASET_NAMES,
    variants: tuple[str, ...] = tuple(VARIANTS),
    seed: int = 0,
    epochs: int | None = None,
    store=None,
) -> MapTable:
    """Regenerate Table 2 (variant ablations) at the requested scale.

    With an artifact store, variants sharing similarity settings (e.g.
    ``ours`` / ``wo_mcl`` / ``cl``, which differ only on the training side)
    reuse one mined Q per dataset, and finished cells replay on resume.
    """
    table = MapTable(title="Table 2: MAPs of UHSCM and its variants")
    contexts = make_contexts(datasets, scale=scale, seed=seed, epochs=epochs,
                             store=store)
    for dataset, ctx in contexts.items():
        for bits in bit_lengths:
            for key in variants:
                fit = ctx.fit_variant(key, bits)
                report = ctx.evaluate(fit)
                table.record(key, dataset, bits, report.map)
    return table

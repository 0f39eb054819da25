"""Figure 3: Precision-Recall curves from the hash-lookup protocol.

PR points come from sweeping the Hamming radius 0..k (§4.3.2).  The paper's
claim: UHSCM's PR curve dominates, i.e. it packs similar images into smaller
Hamming balls.
"""

from __future__ import annotations

from repro.datasets import DATASET_NAMES
from repro.experiments.reporting import CurveFamily
from repro.experiments.runner import TABLE1_METHODS, make_contexts

#: Bit lengths shown in the figure.
FIGURE3_BITS: tuple[int, ...] = (64, 128)


def run_figure3(
    scale: float = 0.02,
    bit_lengths: tuple[int, ...] = FIGURE3_BITS,
    datasets: tuple[str, ...] = DATASET_NAMES,
    methods: tuple[str, ...] = TABLE1_METHODS,
    seed: int = 0,
    epochs: int | None = None,
    store=None,
) -> dict[tuple[str, int], CurveFamily]:
    """Regenerate every Figure 3 panel; keys are (dataset, bits).

    Each curve is recall (x) vs precision (y) over the radius sweep.
    """
    panels: dict[tuple[str, int], CurveFamily] = {}
    contexts = make_contexts(datasets, scale=scale, seed=seed, epochs=epochs,
                             store=store)
    for dataset, ctx in contexts.items():
        for bits in bit_lengths:
            family = CurveFamily(
                title=f"Figure 3: PR curve on {dataset} @{bits} bits",
                x_label="recall",
                y_label="precision",
            )
            for method in methods:
                curve = ctx.evaluate(ctx.fit(method, bits),
                                     pn_points=()).pr_curve
                family.record(method, curve.recall, curve.precision)
            panels[(dataset, bits)] = family
    return panels

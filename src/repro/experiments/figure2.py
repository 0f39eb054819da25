"""Figure 2: Precision@N curves (N = 100 … 1000) at 64 and 128 bits.

Reproduces the Hamming-ranking P@N protocol of §4.2 for every Table 1
method on all three datasets.  The paper's claim: UHSCM's curve dominates
every baseline at every N, most dramatically on CIFAR10.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import DATASET_NAMES
from repro.experiments.reporting import CurveFamily
from repro.experiments.runner import TABLE1_METHODS, make_contexts

#: N values plotted in the paper's Figure 2.
FIGURE2_POINTS: tuple[int, ...] = (100, 300, 500, 700, 900, 1000)

#: Bit lengths shown in the figure.
FIGURE2_BITS: tuple[int, ...] = (64, 128)


def run_figure2(
    scale: float = 0.02,
    bit_lengths: tuple[int, ...] = FIGURE2_BITS,
    datasets: tuple[str, ...] = DATASET_NAMES,
    methods: tuple[str, ...] = TABLE1_METHODS,
    seed: int = 0,
    epochs: int | None = None,
    store=None,
) -> dict[tuple[str, int], CurveFamily]:
    """Regenerate every Figure 2 panel; keys are (dataset, bits)."""
    panels: dict[tuple[str, int], CurveFamily] = {}
    contexts = make_contexts(datasets, scale=scale, seed=seed, epochs=epochs,
                             store=store)
    for dataset, ctx in contexts.items():
        n_db = ctx.dataset.n_database
        points = tuple(min(p, n_db) for p in FIGURE2_POINTS)
        points = tuple(dict.fromkeys(points))  # dedupe if db is small
        for bits in bit_lengths:
            family = CurveFamily(
                title=f"Figure 2: P@N on {dataset} @{bits} bits",
                x_label="N",
                y_label="precision",
            )
            for method in methods:
                pn = ctx.evaluate(ctx.fit(method, bits),
                                  pn_points=points).precision_at_n
                family.record(
                    method,
                    np.asarray(list(pn.keys())),
                    np.asarray(list(pn.values())),
                )
            panels[(dataset, bits)] = family
    return panels

"""Table 1: MAP of Hamming ranking for all methods / datasets / bit widths.

Paper reference values (for shape comparison — absolute numbers depend on
the authors' data and backbone; this reproduction claims shape, not value):

======== ===== ===== ===== =====  ===== ===== ===== =====  ===== ===== ===== =====
method   CIFAR10 (32/64/96/128)   NUS-WIDE (32/64/96/128)  MIRFlickr (32/64/96/128)
======== =========================  ========================  =======================
LSH      0.257 0.286 0.346 0.375  0.538 0.579 0.636 0.666  0.642 0.685 0.701 0.702
UHSCM    0.831 0.850 0.857 0.853  0.796 0.810 0.813 0.815  0.827 0.834 0.835 0.834
======== =========================  ========================  =======================

(remaining rows in the paper text; the key claims are: UHSCM best everywhere,
largest margin on CIFAR10, shallow methods weakest.)
"""

from __future__ import annotations

from repro.config import PAPER_BIT_LENGTHS
from repro.datasets import DATASET_NAMES
from repro.experiments.reporting import MapTable
from repro.experiments.runner import TABLE1_METHODS, make_contexts

#: Paper Table 1 MAP values, used by EXPERIMENTS.md's paper-vs-measured index.
PAPER_TABLE1: dict[str, dict[str, tuple[float, float, float, float]]] = {
    "cifar10": {
        "LSH": (0.257, 0.286, 0.346, 0.375),
        "SH": (0.327, 0.339, 0.341, 0.353),
        "ITQ": (0.442, 0.474, 0.479, 0.492),
        "AGH": (0.495, 0.491, 0.485, 0.481),
        "SSDH": (0.314, 0.331, 0.352, 0.372),
        "GH": (0.456, 0.469, 0.500, 0.504),
        "BGAN": (0.583, 0.607, 0.604, 0.612),
        "MLS3RDUH": (0.540, 0.550, 0.559, 0.569),
        "CIB": (0.580, 0.599, 0.606, 0.611),
        "UHSCM": (0.831, 0.850, 0.857, 0.853),
    },
    "nuswide": {
        "LSH": (0.538, 0.579, 0.636, 0.666),
        "SH": (0.612, 0.623, 0.623, 0.626),
        "ITQ": (0.719, 0.743, 0.751, 0.753),
        "AGH": (0.727, 0.733, 0.734, 0.732),
        "SSDH": (0.552, 0.596, 0.637, 0.673),
        "GH": (0.684, 0.720, 0.737, 0.743),
        "BGAN": (0.777, 0.785, 0.790, 0.793),
        "MLS3RDUH": (0.776, 0.788, 0.793, 0.796),
        "CIB": (0.774, 0.782, 0.782, 0.783),
        "UHSCM": (0.796, 0.810, 0.813, 0.815),
    },
    "mirflickr": {
        "LSH": (0.642, 0.685, 0.701, 0.702),
        "SH": (0.660, 0.659, 0.654, 0.654),
        "ITQ": (0.763, 0.769, 0.776, 0.776),
        "AGH": (0.798, 0.786, 0.777, 0.771),
        "SSDH": (0.749, 0.752, 0.761, 0.762),
        "GH": (0.744, 0.766, 0.782, 0.791),
        "BGAN": (0.783, 0.793, 0.803, 0.806),
        "MLS3RDUH": (0.814, 0.818, 0.817, 0.816),
        "CIB": (0.796, 0.808, 0.813, 0.812),
        "UHSCM": (0.827, 0.834, 0.835, 0.834),
    },
}


def run_table1(
    scale: float = 0.02,
    bit_lengths: tuple[int, ...] = PAPER_BIT_LENGTHS,
    datasets: tuple[str, ...] = DATASET_NAMES,
    methods: tuple[str, ...] = TABLE1_METHODS,
    seed: int = 0,
    epochs: int | None = None,
    store=None,
) -> MapTable:
    """Regenerate Table 1 at the requested reproduction scale.

    With an :class:`~repro.pipeline.ArtifactStore`, finished
    (method, n_bits) cells replay from their encode artifacts, so an
    interrupted run resumes where it died and UHSCM mines each dataset's
    Q once for all bit widths.
    """
    table = MapTable(title="Table 1: MAP of Hamming ranking")
    contexts = make_contexts(datasets, scale=scale, seed=seed, epochs=epochs,
                             store=store)
    for dataset, ctx in contexts.items():
        for bits in bit_lengths:
            for method in methods:
                fit = ctx.fit(method, bits)
                report = ctx.evaluate(fit)
                table.record(method, dataset, bits, report.map)
    return table

"""Walk through UHSCM's semantic-similarity generator step by step.

Shows each stage of Figure 1's left half on the NUS-WIDE analogue:
raw VLP scores (Eq. 1), concept distributions (Eq. 2), frequency-based
denoising (Eq. 4-5), and the final similarity matrix Q (Eq. 6) — including
which concepts get discarded and why.

Run:  python examples/concept_mining_pipeline.py
"""

import numpy as np

from repro.core.denoising import denoise_concepts
from repro.core.mining import ConceptMiner
from repro.core.similarity import similarity_from_distributions
from repro.datasets import load_dataset
from repro.vlp import NUS_WIDE_81, SimCLIP


def main() -> None:
    data = load_dataset("nuswide", scale=0.03, seed=3)
    clip = SimCLIP(data.world)
    miner = ConceptMiner(clip, template="a photo of the {concept}",
                         tau_scale=1.0)
    images = data.train_images

    # Eq. 1-2: mine distributions over the 81 candidate concepts.
    distributions = miner.mine(images, NUS_WIDE_81)
    print(f"mined distributions: {distributions.shape} "
          f"(n={distributions.shape[0]} images, m={distributions.shape[1]})")

    # Eq. 4: argmax-win frequency per concept.
    result = denoise_concepts(NUS_WIDE_81, distributions)
    order = np.argsort(result.frequencies)[::-1]
    print("\nmost frequently winning concepts (Eq. 4):")
    n = distributions.shape[0]
    for idx in order[:8]:
        name = NUS_WIDE_81[idx]
        freq = result.frequencies[idx]
        status = "KEPT" if result.kept_mask[idx] else "DISCARDED"
        print(f"  {name:12s} f={freq:4d}  ({freq / n:5.1%} of images)  {status}")

    upper = 0.5 * n
    lower = 0.5 * n / len(NUS_WIDE_81)
    print(f"\nEq. 5 keep band: {lower:.1f} <= f(c) <= {upper:.1f}")
    print(f"kept {result.n_kept}/{len(NUS_WIDE_81)} concepts")
    print(f"discarded as too frequent: "
          f"{[c for c in result.discarded_concepts if result.frequencies[NUS_WIDE_81.index(c)] > upper]}")

    # Second prompting pass over the clean set + Eq. 6.
    clean_distributions = miner.mine(images, result.kept_concepts)
    q = similarity_from_distributions(clean_distributions).to_dense()
    off = ~np.eye(q.shape[0], dtype=bool)
    print(f"\nsimilarity matrix Q: shape={q.shape}, "
          f"mean={q[off].mean():.3f}, std={q[off].std():.3f}")

    # How well does Q track the ground-truth label overlap?
    labels = data.train_labels.astype(float)
    ideal = (labels @ labels.T) > 0
    corr = np.corrcoef(q[off], ideal[off].astype(float))[0, 1]
    print(f"correlation of Q with true share-a-label relevance: {corr:.3f}")


if __name__ == "__main__":
    main()

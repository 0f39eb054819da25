"""Similarity-scale benchmark: the blocked sparse top-k Q engine vs dense.

Acceptance gates for the sparse similarity engine at the gated scale
(12k rows × 512-dim features, k = 256, 512-row GEMM tiles):

1. the blocked CSR build must cut peak Q-build memory by >= 8x versus the
   dense ``cosine_similarity_matrix`` build (tracemalloc, which tracks
   numpy buffers);
2. the blocked CSR build must beat the dense build wall-clock;
3. with ``k >= n - 1`` the sparse form must densify bit-identically to the
   dense matrix, and at small k every stored entry must equal its dense
   counterpart with full per-row top-k coverage;
4. end to end, a UHSCM fit trained against sparse Q must land within
   ``MAP_TOL`` mAP of the dense-Q fit on the same data (sparse Q is a
   controlled approximation: only weak similarity entries are zeroed).

Run it from ``benchmarks/`` with
``PYTHONPATH=../src python -m pytest -q -s bench_similarity_scale.py``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.config import paper_config
from repro.core.similarity_matrix import SparseTopKSimilarity
from repro.core.uhscm import UHSCM
from repro.datasets import load_dataset
from repro.retrieval import evaluate_hashing
from repro.utils.mathops import cosine_similarity_matrix
from repro.vlp import SimCLIP

from conftest import BENCH_SCALE, assert_speedup, measure_peak_memory, timed

N_ROWS = 12_000
FEATURE_DIM = 512
TOP_K = 256
BLOCK_ROWS = 512
REQUIRED_MEM_RATIO = 8.0
REQUIRED_SPEEDUP = 1.2
#: |mAP(sparse Q) - mAP(dense Q)| bound for the end-to-end fit (measured
#: drift is well below; the bound leaves room for platform BLAS noise).
MAP_TOL = 0.05
E2E_BITS = 32
E2E_EPOCHS = 10
E2E_TOPK = 64


def _sparse_build(features: np.ndarray) -> SparseTopKSimilarity:
    return SparseTopKSimilarity.from_features(
        features, TOP_K, block_rows=BLOCK_ROWS
    )


def _check_exactness(features: np.ndarray, dense: np.ndarray,
                     sparse: SparseTopKSimilarity) -> None:
    """Gate 3: k >= n-1 bit-identity plus stored-entry fidelity at scale."""
    # Full-k identity on a slice (building a full-k CSR at 12k rows would
    # just re-materialize n² under another name).
    small = features[:2000]
    full = SparseTopKSimilarity.from_features(small, small.shape[0] - 1)
    assert np.array_equal(full.to_dense(), cosine_similarity_matrix(small))

    # At the gated scale: sampled rows hold exactly the k strongest dense
    # entries (plus the diagonal, modulo ties at the cutoff) with values
    # bit-identical to the dense build.
    rng = np.random.default_rng(11)
    for row in rng.choice(N_ROWS, size=16, replace=False):
        start, stop = sparse.indptr[row], sparse.indptr[row + 1]
        cols = sparse.indices[start:stop]
        vals = sparse.data[start:stop]
        assert np.array_equal(vals, dense[row, cols])
        assert row in cols  # the diagonal is always kept
        kept = np.sort(dense[row, cols])
        strongest = np.sort(dense[row])[-(TOP_K + 1):]
        # Every kept value is >= the weakest of the true top-(k+1); ties at
        # the cutoff may swap which index is kept, values cannot be beaten.
        assert kept[-TOP_K:].min() >= strongest.min()


def test_bench_similarity_scale(results_dir):
    rng = np.random.default_rng(5)
    features = rng.normal(size=(N_ROWS, FEATURE_DIM))

    # Wall-clock first (untraced; tracemalloc adds per-allocation cost).
    t_dense, dense = timed(lambda: cosine_similarity_matrix(features))
    t_sparse, sparse = timed(lambda: _sparse_build(features))
    _check_exactness(features, dense, sparse)
    dense_bytes = dense.nbytes
    del dense  # keep the traced dense build from doubling resident memory

    peak_dense, out = measure_peak_memory(
        lambda: cosine_similarity_matrix(features)
    )
    del out
    peak_sparse, _ = measure_peak_memory(lambda: _sparse_build(features))
    mem_ratio = peak_dense / peak_sparse

    # Gate 4: end-to-end retrieval quality, dense Q vs sparse Q.
    data = load_dataset("cifar10", scale=BENCH_SCALE, seed=0)
    clip = SimCLIP(data.world)
    config = paper_config("cifar10", n_bits=E2E_BITS, seed=0)
    config = replace(config, train=replace(config.train, epochs=E2E_EPOCHS))
    map_dense = evaluate_hashing(
        UHSCM(config, clip=clip).fit(data.train_images), data
    ).map
    map_sparse = evaluate_hashing(
        UHSCM(replace(config, sparse_topk=E2E_TOPK), clip=clip).fit(
            data.train_images
        ),
        data,
    ).map
    map_drift = abs(map_dense - map_sparse)

    lines = [
        f"similarity engine scale: n={N_ROWS} dim={FEATURE_DIM} k={TOP_K} "
        f"block_rows={BLOCK_ROWS}",
        f"dense build : {t_dense * 1e3:9.1f} ms   "
        f"peak {peak_dense / 1e6:8.1f} MB   Q {dense_bytes / 1e6:8.1f} MB",
        f"sparse build: {t_sparse * 1e3:9.1f} ms   "
        f"peak {peak_sparse / 1e6:8.1f} MB   Q {sparse.nbytes / 1e6:8.1f} MB",
        f"peak memory : {mem_ratio:.1f}x lower "
        f"(required >= {REQUIRED_MEM_RATIO:.1f}x)",
        f"exactness   : k>=n-1 bit-identical; stored entries == dense; "
        f"per-row top-{TOP_K}+diagonal coverage",
        f"end-to-end  : mAP dense {map_dense:.4f} vs sparse(k={E2E_TOPK}) "
        f"{map_sparse:.4f} (|drift| {map_drift:.4f} <= {MAP_TOL})",
    ]
    assert mem_ratio >= REQUIRED_MEM_RATIO, "\n".join(lines)
    assert map_drift <= MAP_TOL, "\n".join(lines)
    assert_speedup(
        results_dir,
        "similarity_scale",
        t_dense,
        t_sparse,
        REQUIRED_SPEEDUP,
        lines=lines,
    )

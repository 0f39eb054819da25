"""Similarity-scale benchmark: the blocked top-k Q kernel vs dense.

No system path builds a top-k Q any more (the exact factored Q is smaller
and faster); the kernel stays for the ``index-sparse`` benchmark workload,
and these gates keep it honest at the gated scale (12k rows × 512-dim
features, k = 256, 512-row GEMM tiles):

1. the blocked CSR build must cut peak Q-build memory by >= 8x versus the
   dense ``cosine_similarity_matrix`` build (tracemalloc, which tracks
   numpy buffers);
2. the blocked CSR build must beat the dense build wall-clock;
3. with ``k >= n - 1`` the sparse form must densify bit-identically to the
   dense matrix, and at small k every stored entry must equal its dense
   counterpart with full per-row top-k coverage.

Run it from ``benchmarks/`` with
``PYTHONPATH=../src python -m pytest -q -s bench_similarity_scale.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.similarity_matrix import SparseTopKSimilarity
from repro.utils.mathops import cosine_similarity_matrix

from conftest import assert_speedup, measure_peak_memory, timed

N_ROWS = 12_000
FEATURE_DIM = 512
TOP_K = 256
BLOCK_ROWS = 512
REQUIRED_MEM_RATIO = 8.0
REQUIRED_SPEEDUP = 1.2


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
    ]
    assert mem_ratio >= REQUIRED_MEM_RATIO, "\n".join(lines)
    assert_speedup(
        results_dir,
        "similarity_scale",
        t_dense,
        t_sparse,
        REQUIRED_SPEEDUP,
        lines=lines,
    )

"""Numerically stable array math shared across the library.

These helpers implement the primitive operations the paper's equations rely
on: temperature softmax (Eq. 2), cosine-similarity matrices (Eq. 3/6), the
sign function used to binarize hash codes, and safe L2 normalization.

The cosine helpers accept a ``dtype`` so callers under a numeric policy
(the nn stack's float32 mode, the blocked sparse-Q kernel) never pay an
upcast copy; the default stays float64, bit-stable with the seed
implementation.  :func:`blocked_topk_cosine` tiles the ``a_n @ a_n.T``
product over row blocks and keeps only the k strongest entries per row
(plus the diagonal) in CSR form, so the full (n, n) similarity matrix is
never materialized.  It backs
:meth:`~repro.core.similarity_matrix.SparseTopKSimilarity.from_features`,
which only the ``index-sparse`` benchmark workload still calls.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.utils.parallel import WorkerPool, as_pool

#: Elements with L2 norm below this are treated as zero vectors when
#: normalizing, to avoid division blow-ups.
_NORM_EPS = 1e-12


def stable_exp(x: np.ndarray) -> np.ndarray:
    """Exponential with the max subtracted along the last axis.

    Equivalent to ``exp(x - max(x))`` row-wise; the common factor cancels in
    any softmax-style ratio, so downstream quotients are unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return np.exp(shifted)


def softmax(x: np.ndarray, temperature: float = 1.0, axis: int = -1) -> np.ndarray:
    """Temperature softmax ``exp(t*x) / sum(exp(t*x))`` (paper Eq. 2).

    The paper multiplies scores by τ (sharpening for τ > 1), so
    ``temperature`` here is a multiplier, not a divisor.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = np.asarray(x, dtype=np.float64) * float(temperature)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def l2_normalize(
    x: np.ndarray, axis: int = -1, dtype: np.dtype | str | None = None
) -> np.ndarray:
    """Scale rows (along ``axis``) to unit L2 norm; zero rows stay zero.

    ``dtype`` selects the working precision (default float64, the seed
    behavior); the norms are computed in that dtype, so a float32 caller
    never round-trips through a float64 copy.
    """
    x = np.asarray(x, dtype=np.float64 if dtype is None else dtype)
    norms = np.linalg.norm(x, axis=axis, keepdims=True)
    return x / np.maximum(norms, _NORM_EPS)


def pairwise_inner(
    a: np.ndarray,
    b: np.ndarray | None = None,
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Dense inner-product matrix ``a @ b.T`` with shape checking.

    ``dtype`` is a passthrough for dtype-policy callers: inputs already in
    that dtype are used as-is (no upcast copy), anything else is cast once.
    ``None`` keeps the historical float64 contract.
    """
    a = np.asarray(a, dtype=np.float64 if dtype is None else dtype)
    b = a if b is None else np.asarray(b, dtype=a.dtype)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"expected 2-D arrays, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]} feature columns"
        )
    return a @ b.T


def cosine_similarity_matrix(
    a: np.ndarray,
    b: np.ndarray | None = None,
    dtype: np.dtype | str | None = None,
) -> np.ndarray:
    """Pairwise cosine similarity (paper Eq. 3 and Eq. 6).

    Rows of ``a`` (and ``b``) are treated as vectors; zero vectors produce
    zero similarity instead of NaN.  ``dtype`` selects the working
    precision (default float64).
    """
    a_n = l2_normalize(np.atleast_2d(a), dtype=dtype)
    b_n = a_n if b is None else l2_normalize(np.atleast_2d(b), dtype=dtype)
    sims = pairwise_inner(a_n, b_n, dtype=a_n.dtype)
    return np.clip(sims, -1.0, 1.0)


#: Default tile height and tile byte cap of the blocked top-k kernel.
_BLOCK_ROWS = 512
_MAX_BLOCK_BYTES = 32 * 1024 * 1024


def _capped_block_rows(
    n: int, itemsize: int, block_rows: int, max_block_bytes: int
) -> int:
    """Shrink ``block_rows`` so one tile stays under ``max_block_bytes``.

    A tile row costs one GEMM buffer row, ``n · itemsize`` bytes.  The
    selection's per-row scratch (:func:`_topk_columns`) is
    O(n / g + keep · g) for group size ``g = ⌊√(n / (4 · keep))⌋`` — far
    below one GEMM row, so it is not counted.  Floors at 16 rows:
    degenerate block heights of a few rows can route BLAS through a
    different (gemv-style) kernel whose summation order differs by ~1 ulp.
    """
    return min(block_rows, max(16, max_block_bytes // (n * itemsize)))


def blocked_topk_cosine(
    features: np.ndarray,
    k: int,
    block_rows: int = _BLOCK_ROWS,
    dtype: np.dtype | str | None = None,
    max_block_bytes: int = _MAX_BLOCK_BYTES,
    workers: "int | WorkerPool | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR top-k rows of the cosine-similarity matrix, built blockwise.

    Tiles ``a_n[start:stop] @ a_n.T`` over row blocks of ``block_rows`` and
    keeps, per row, the k strongest entries plus the diagonal — the full
    (n, n) matrix never exists.  Peak extra memory is O(block_rows · n) for
    the GEMM buffer instead of O(n²) (times the worker count when the
    build runs parallel, each worker owning one tile buffer).

    ``workers`` (a count, an existing :class:`~repro.utils.parallel.
    WorkerPool`, or ``None`` = ``$REPRO_WORKERS``) dispatches the row-block
    tiles to a shared thread pool: every tile computes the same GEMM over
    the same fixed block shape and writes its own disjoint ``data``/
    ``indices`` row range, so the parallel build is bit-identical to the
    serial one at any worker count — the serial path (``workers <= 1``) is
    the oracle the parallel-scale bench gates against.

    Returns ``(data, indices, indptr)`` in canonical CSR form: column
    indices sorted ascending within each row, every row holding exactly
    ``min(k, n - 1) + 1`` entries — the diagonal plus a true top-k of the
    row's other entries (exact ties may keep different, equally strong
    columns).  Values are the tile's dot products clipped to [-1, 1].
    They are bit-identical across worker counts.  BLAS summation order is
    only stable for a fixed tile shape, so a different tile height, or
    the one whole-matrix GEMM of :func:`cosine_similarity_matrix`, can
    move an entry by up to 2 machine epsilons (1 eps measured with
    OpenBLAS): with ``k >= n - 1`` the densified result matches the dense
    matrix to that tolerance, not always bit for bit.  ``max_block_bytes``
    caps the tile by shrinking ``block_rows`` for large n.
    """
    if k <= 0:
        raise ConfigurationError(f"k must be positive: {k}")
    if block_rows <= 0:
        raise ConfigurationError(f"block_rows must be positive: {block_rows}")
    if max_block_bytes <= 0:
        raise ConfigurationError(
            f"max_block_bytes must be positive: {max_block_bytes}"
        )
    a_n = l2_normalize(np.atleast_2d(features), dtype=dtype)
    if a_n.ndim != 2:
        raise ShapeError(f"expected a 2-D feature array, got {a_n.shape}")
    n = a_n.shape[0]
    if n == 0:  # empty corpus: an empty CSR, like the dense (0, 0) matrix
        return (np.zeros(0, dtype=a_n.dtype), np.zeros(0, dtype=np.int32),
                np.zeros(1, dtype=np.int32))
    keep = min(k, n - 1) + 1  # k strongest plus the diagonal
    index_dtype, indptr_dtype = _topk_index_dtypes(n, keep)
    block_rows = _capped_block_rows(
        n, a_n.dtype.itemsize, block_rows, max_block_bytes
    )
    data = np.empty((n, keep), dtype=a_n.dtype)
    indices = np.empty((n, keep), dtype=index_dtype)
    _fill_topk_blocks(a_n, keep, block_rows, data, indices, workers=workers)
    indptr = np.arange(n + 1, dtype=indptr_dtype) * indptr_dtype(keep)
    return data.reshape(-1), indices.reshape(-1), indptr


def _topk_index_dtypes(n: int, keep: int) -> tuple[np.dtype, np.dtype]:
    """Smallest safe integer dtypes for CSR column indices and indptr.

    Column indices only hold values < n; indptr must hold nnz = n * keep,
    which can overflow int32 long before n does.
    """
    index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    indptr_dtype = (np.int32 if n * keep <= np.iinfo(np.int32).max
                    else np.int64)
    return index_dtype, indptr_dtype


def _topk_block(
    a_n: np.ndarray,
    a_t: np.ndarray,
    keep: int,
    start: int,
    stop: int,
    buf: np.ndarray,
    data: np.ndarray,
    indices: np.ndarray,
) -> None:
    """Compute one row-block tile into ``data[start:stop]``/``indices[...]``.

    One GEMM tile and a per-row top-(keep) selection.  The body is shared
    verbatim by the serial loop and the pooled workers, so parallel
    results are bit-identical by construction: every tile writes only its
    own row range and depends only on its own dot products.
    """
    block = buf[: stop - start]
    np.dot(a_n[start:stop], a_t, out=block)
    order, values = _topk_select(block, keep, start, stop)
    indices[start:stop] = order
    data[start:stop] = values


def _topk_select(
    block: np.ndarray, keep: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-(keep) selection on one computed (unclipped) GEMM tile.

    Returns ``(order, values)`` — ascending column indices and the
    corresponding clipped similarities for rows ``start:stop``.  Only the
    kept values are clipped: clip is monotone, so a top-(keep) of the raw
    dot products is a top-(keep) of the clipped ones.
    """
    n = block.shape[1]
    if keep == n:
        selected = np.broadcast_to(np.arange(n), block.shape)
    else:
        # The selection's first column is the weakest selected entry,
        # which the diagonal displaces when absent.
        selected = _topk_columns(block, keep)
        diagonal = np.arange(start, stop)
        has_diag = (selected == diagonal[:, None]).any(axis=1)
        selected[~has_diag, 0] = diagonal[~has_diag]
    rows = np.arange(stop - start)
    order = np.sort(selected, axis=1)
    values = block[rows[:, None], order]
    np.clip(values, -1.0, 1.0, out=values)
    return order, values


def _topk_columns(block: np.ndarray, keep: int) -> np.ndarray:
    """Columns of each row's ``keep`` largest entries, weakest first.

    An exact two-level selection (the block-max bound of Ding & Suel,
    SIGIR 2011).  The row's first ``m · g`` columns split into ``m =
    n // g`` strided groups — group ``j`` holds columns ``j, j + m, ...,
    j + (g - 1) · m`` — and only the ``keep`` groups with the largest
    maxima, plus the fewer-than-``g`` tail columns, are ranked.  Every
    column outside them is at most its group's maximum, hence at most the
    ``keep``-th largest group maximum, while the chosen groups' maxima
    alone are ``keep`` candidates at least that large: the result is a
    true top-``keep`` (exact ties may resolve to different, equally
    strong columns).  ``g = ⌊√(n / (4 · keep))⌋`` balances the n/g-wide
    group ranking against the ``keep · g`` candidate gather; ``g = 1`` is
    the plain full-row argpartition.
    """
    rows, n = block.shape
    g = max(1, math.isqrt(n // (4 * keep)))
    if g == 1:
        return np.argpartition(block, n - keep, axis=1)[:, n - keep:]
    m = n // g  # g >= 2 implies n >= 4 · keep · g², so m >= 8 · keep
    # Splitting the contiguous column axis is a view; its max over the
    # group axis is an elementwise max of g contiguous slices.
    group_max = block[:, : m * g].reshape(rows, g, m).max(axis=1)
    top = np.argpartition(group_max, m - keep, axis=1)[:, m - keep:]
    candidates = (top[:, :, None] + m * np.arange(g)).reshape(rows, -1)
    if m * g < n:
        tail = np.broadcast_to(np.arange(m * g, n), (rows, n - m * g))
        candidates = np.concatenate([candidates, tail], axis=1)
    values = block[np.arange(rows)[:, None], candidates]
    c = candidates.shape[1]
    pick = np.argpartition(values, c - keep, axis=1)[:, c - keep:]
    return np.take_along_axis(candidates, pick, axis=1)


def _fill_topk_blocks(
    a_n: np.ndarray,
    keep: int,
    block_rows: int,
    data: np.ndarray,
    indices: np.ndarray,
    workers: "int | WorkerPool | None" = 1,
) -> None:
    """The tiled-GEMM top-k loop of :func:`blocked_topk_cosine`.

    ``a_n`` is the L2-normalized feature matrix; ``data``/``indices`` are
    preallocated (n, keep) destinations.  Each output row depends only on
    that row's dot products, so results are identical whichever worker
    computes them.

    With ``workers > 1`` the tiles dispatch to a
    :class:`~repro.utils.parallel.WorkerPool`: the GEMM releases the GIL
    inside BLAS, each worker thread reuses one private tile buffer
    (allocated lazily per thread, never shared), and the tile shape is
    fixed by :func:`_capped_block_rows` regardless of the worker count —
    the same-summation-order property the bit-identity guarantee rests
    on.
    """
    n = a_n.shape[0]
    block_rows = min(block_rows, n)
    starts = range(0, n, block_rows)
    pool, owned = as_pool(workers, name="topk")
    try:
        if pool.serial:
            a_t = a_n.T  # transposed view; BLAS consumes it without a copy
            buf = np.empty((block_rows, n), dtype=a_n.dtype)
            for start in starts:
                stop = min(start + block_rows, n)
                _topk_block(a_n, a_t, keep, start, stop, buf, data, indices)
            return
        a_t = a_n.T
        scratch = threading.local()

        def tile(start: int) -> None:
            buf = getattr(scratch, "buf", None)
            if buf is None:
                buf = np.empty((block_rows, n), dtype=a_n.dtype)
                scratch.buf = buf
            stop = min(start + block_rows, n)
            _topk_block(a_n, a_t, keep, start, stop, buf, data, indices)

        pool.map(tile, starts)
    finally:
        if owned:
            pool.close()


def sign(x: np.ndarray) -> np.ndarray:
    """Element-wise sign in {-1, +1}, exactly the paper's ``sgn``:
    "returns 1 if the input is positive and returns -1 otherwise"
    (so zero maps to -1)."""
    return np.where(np.asarray(x) > 0, 1.0, -1.0)

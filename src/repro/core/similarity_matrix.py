"""The ``SimilarityMatrix`` abstraction over the paper's Q (Eq. 3 / Eq. 6).

Every layer of Algorithm 1 that touches the semantic similarity matrix only
ever needs three operations: the t×t sub-block for a training mini-batch
(:meth:`SimilarityMatrix.gather`), a dtype cast at ``fit`` time, and a
serializable payload for the artifact store.  This module provides three
interchangeable implementations behind that contract:

- :class:`FactoredSimilarity` — Q as its factor: Eq. 6 is
  ``Q = clip(A·Aᵀ, -1, 1)`` for the (n, m) matrix A of L2-normalised
  concept distributions, so holding A (``n · m · 8`` bytes) and computing
  each batch block as ``clip(A[idx] @ A[idx].T)`` gives the paper's Q
  without ever building n².  The default on every UHSCM path;
- :class:`DenseSimilarity` — a materialized (n, n) array: a Q the caller
  injects, or a dense artifact already in a store;
- :class:`SparseTopKSimilarity` — a top-k CSR form built by the blocked
  kernel :func:`repro.utils.mathops.blocked_topk_cosine`, which keeps only
  the k strongest entries per row (plus the diagonal).  No system path
  builds it: the exact factor is both smaller and faster to build.  It
  stays for the ``index-sparse`` benchmark workload and for CSR
  artifacts already in a store.

The factored form's :meth:`~FactoredSimilarity.to_dense` is bit-identical
to :func:`repro.utils.mathops.cosine_similarity_matrix`.  Its gathered
blocks are t-row GEMMs where the dense build is one n-row GEMM, which
BLAS may sum in a different order: measured with OpenBLAS, blocks match
the dense gather bit for bit at most shapes and differ by at most 2.5
eps at some (n = 513, 3500).

With ``k >= n - 1`` the sparse form holds every entry and densifies to
the dense matrix within 2 machine epsilons per entry: the kernel's row-block
GEMMs can sum in a different order than the one whole-matrix GEMM (measured
with OpenBLAS: at most 1 eps, and some shapes match bit for bit).  Builds
are bit-identical to each other across worker counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.utils.mathops import _BLOCK_ROWS, blocked_topk_cosine

#: ``meta`` key identifying the payload layout of a stored Q.
PAYLOAD_FORMAT_KEY = "q_format"
DENSE_FORMAT = "dense"
CSR_FORMAT = "csr-topk"
FACTOR_FORMAT = "factor"


class SimilarityMatrix:
    """Contract shared by every Q representation.

    Subclasses expose ``shape``/``dtype``/``nbytes``, batch gathering,
    casting, densification, and the store payload.  ``nbytes`` is the
    memory model documented in the README: ``n · m · itemsize`` factored,
    ``n² · itemsize`` dense, ``n · (k + 1)`` values + indices sparse.
    """

    @property
    def shape(self) -> tuple[int, int]:
        raise NotImplementedError

    @property
    def dtype(self) -> np.dtype:
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    @property
    def n(self) -> int:
        return self.shape[0]

    def astype(self, dtype: np.dtype | str) -> "SimilarityMatrix":
        """Cast values to ``dtype``; a no-op (returns self) when already there."""
        raise NotImplementedError

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Dense ``Q[idx][:, idx]`` block for a mini-batch (``idx`` unique)."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """The full (n, n) array; O(n²) — for tests and small matrices only."""
        raise NotImplementedError

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``(meta, arrays)`` fragments for the artifact-store archive."""
        raise NotImplementedError


class FactoredSimilarity(SimilarityMatrix):
    """Eq. 6's Q held as its factor: ``Q = clip(A·Aᵀ, -1, 1)``.

    Each factor is an (n, m) matrix of L2-normalised rows.  With several
    factors (template averaging, the ``UHSCM_avg`` ablation) Q is the mean
    of the per-factor matrices, taken in factor order exactly as
    ``np.mean(..., axis=0)`` averages the dense ones.

    Blocks are computed in the factors' dtype and then cast to
    :attr:`dtype`, so a float32 cast keeps the float64 factors and yields
    the float32 cast of each float64 block — the same bits as casting the
    dense Q.  Factors may be memmaps (a Q replayed from a raw-format store
    artifact).
    """

    def __init__(
        self, *factors: np.ndarray, dtype: np.dtype | str | None = None
    ) -> None:
        if not factors:
            raise ConfigurationError("at least one factor is required")
        rows = factors[0].shape[:1]
        if any(f.ndim != 2 or f.shape[:1] != rows for f in factors):
            raise ShapeError(
                "factors must be 2-D with the same row count, got "
                f"{[f.shape for f in factors]}"
            )
        self.factors = factors
        self._dtype = np.dtype(factors[0].dtype if dtype is None else dtype)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.factors[0].shape[0]
        return (n, n)

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def nbytes(self) -> int:
        return sum(factor.nbytes for factor in self.factors)

    def astype(self, dtype: np.dtype | str) -> "FactoredSimilarity":
        dtype = np.dtype(dtype)
        if self._dtype == dtype:
            return self
        return FactoredSimilarity(*self.factors, dtype=dtype)

    def gather(self, idx: np.ndarray) -> np.ndarray:
        # The symmetric rank-m update of the batch rows: O(t² · m) per
        # step, the same clip(a @ a.T) cosine_similarity_matrix runs on
        # all n rows.
        idx = np.asarray(idx, dtype=np.intp)
        blocks = []
        for factor in self.factors:
            rows = factor[idx]
            block = rows @ rows.T
            blocks.append(np.clip(block, -1.0, 1.0, out=block))
        block = blocks[0] if len(blocks) == 1 else np.mean(blocks, axis=0)
        return block.astype(self._dtype, copy=False)

    def to_dense(self) -> np.ndarray:
        return self.gather(np.arange(self.n))

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {
            PAYLOAD_FORMAT_KEY: FACTOR_FORMAT,
            "factors": len(self.factors),
            "dtype": self._dtype.name,
        }
        arrays = {f"factor_{i}": f for i, f in enumerate(self.factors)}
        return meta, arrays


class DenseSimilarity(SimilarityMatrix):
    """A materialized (n, n) similarity matrix: an injected array or a
    dense artifact replayed from a store."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(
                f"similarity matrix must be square 2-D, got {matrix.shape}"
            )
        self.matrix = matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    @property
    def nbytes(self) -> int:
        return self.matrix.nbytes

    def astype(self, dtype: np.dtype | str) -> "DenseSimilarity":
        dtype = np.dtype(dtype)
        if self.matrix.dtype == dtype:
            return self
        return DenseSimilarity(self.matrix.astype(dtype))

    def gather(self, idx: np.ndarray) -> np.ndarray:
        # One flat take instead of np.ix_'s open-mesh fancy-index: gathers
        # only the t² sub-block (O(n·t) per epoch, no O(n²) permuted copy)
        # and measures fastest at the gated training scale.  intp keeps the
        # idx*n flat offsets from wrapping when a caller hands int32 ids.
        idx = np.asarray(idx, dtype=np.intp)
        return self.matrix.take(idx[:, None] * self.n + idx[None, :])

    def to_dense(self) -> np.ndarray:
        return self.matrix

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {PAYLOAD_FORMAT_KEY: DENSE_FORMAT}, {"matrix": self.matrix}


class SparseTopKSimilarity(SimilarityMatrix):
    """Top-k CSR similarity: the k strongest entries per row + the diagonal.

    ``data``/``indices``/``indptr`` follow the canonical CSR convention
    (column indices sorted ascending within each row).  Entries absent from
    a row read as 0.0, so below ``k = n - 1`` the form approximates Q.

    No generator builds this form; the exact :class:`FactoredSimilarity`
    is smaller and builds faster.  It stays only because the
    ``index-sparse`` benchmark workload calls :meth:`from_features` by
    name, and so that CSR artifacts already in a store still load.  The
    components may be disk-backed (a raw-format store artifact).
    """

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        n: int,
        k: int,
    ) -> None:
        data = np.asarray(data)
        indices = np.asarray(indices)
        indptr = np.asarray(indptr)
        if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
            raise ShapeError("CSR components must be 1-D arrays")
        if data.shape != indices.shape:
            raise ShapeError(
                f"data/indices length mismatch: {data.shape} vs {indices.shape}"
            )
        if indptr.shape != (n + 1,):
            raise ShapeError(
                f"indptr must have length n + 1 = {n + 1}, got {indptr.shape}"
            )
        if int(indptr[-1]) != data.shape[0]:
            raise ShapeError(
                f"indptr[-1] ({int(indptr[-1])}) must equal nnz ({data.shape[0]})"
            )
        if k <= 0:
            raise ConfigurationError(f"k must be positive: {k}")
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.k = int(k)
        self._n = int(n)
        self._col_pos: np.ndarray | None = None  # lazily built gather scratch

    @classmethod
    def from_features(
        cls,
        features: np.ndarray,
        k: int,
        block_rows: int = _BLOCK_ROWS,
        dtype: np.dtype | str | None = None,
        workers: int | None = None,
    ) -> "SparseTopKSimilarity":
        """Build from raw feature rows via the blocked pairwise-cosine kernel.

        ``workers`` dispatches the kernel's row-block tiles to the shared
        thread pool (``None`` = ``$REPRO_WORKERS``).  Results are
        bit-identical at any worker count.
        """
        features = np.atleast_2d(features)
        data, indices, indptr = blocked_topk_cosine(
            features, k, block_rows=block_rows, dtype=dtype, workers=workers,
        )
        return cls(data, indices, indptr, n=features.shape[0], k=k)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._n)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def astype(self, dtype: np.dtype | str) -> "SparseTopKSimilarity":
        dtype = np.dtype(dtype)
        if self.data.dtype == dtype:
            return self
        return SparseTopKSimilarity(
            self.data.astype(dtype), self.indices, self.indptr,
            n=self._n, k=self.k,
        )

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """CSR row-slice + column-select, densified at batch size.

        O(t · (k + 1)) per batch after a one-time O(n) scratch allocation:
        the selected rows' stored entries are scattered into a zero (t, t)
        block wherever their column also belongs to ``idx``.  ``idx`` must
        be duplicate-free (mini-batch permutation slices always are).
        """
        idx = np.asarray(idx)
        t = idx.shape[0]
        out = np.zeros((t, t), dtype=self.dtype)
        if t == 0:
            return out
        if self._col_pos is None:
            self._col_pos = np.full(self._n, -1, dtype=np.int64)
        pos = self._col_pos
        pos[idx] = np.arange(t)
        starts = self.indptr[idx].astype(np.int64, copy=False)
        counts = (self.indptr[idx + 1] - self.indptr[idx]).astype(
            np.int64, copy=False
        )
        ends = np.cumsum(counts)
        # Flat data positions of every stored entry in the selected rows.
        flat = np.arange(ends[-1], dtype=np.int64)
        flat += np.repeat(starts - (ends - counts), counts)
        cols = pos[self.indices[flat]]
        keep = cols >= 0
        rows = np.repeat(np.arange(t), counts)[keep]
        out[rows, cols[keep]] = self.data[flat[keep]]
        pos[idx] = -1  # reset the scratch for the next batch
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self._n, self._n), dtype=self.dtype)
        rows = np.repeat(np.arange(self._n), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        meta = {
            PAYLOAD_FORMAT_KEY: CSR_FORMAT,
            "n": self._n,
            "sparse_topk": self.k,
        }
        arrays = {
            "q_data": self.data,
            "q_indices": self.indices,
            "q_indptr": self.indptr,
        }
        return meta, arrays


def as_similarity_matrix(
    value: "np.ndarray | SimilarityMatrix",
) -> SimilarityMatrix:
    """Wrap a raw array as :class:`DenseSimilarity`; pass wrappers through."""
    if isinstance(value, SimilarityMatrix):
        return value
    return DenseSimilarity(np.asarray(value))


def similarity_from_payload(
    meta: dict, arrays: dict[str, np.ndarray]
) -> "np.ndarray | FactoredSimilarity | SparseTopKSimilarity":
    """Reconstruct a stored Q from its archive body.

    The dense layout (also every pre-sparse artifact, which carries no
    format marker) comes back as the raw array so downstream consumers of
    the historical contract are untouched; the factor layout comes back as
    a :class:`FactoredSimilarity` and the CSR layout as a
    :class:`SparseTopKSimilarity`.
    """
    layout = meta.get(PAYLOAD_FORMAT_KEY, DENSE_FORMAT)
    if layout == DENSE_FORMAT:
        return arrays["matrix"]
    if layout == FACTOR_FORMAT:
        return FactoredSimilarity(
            *(arrays[f"factor_{i}"] for i in range(int(meta["factors"]))),
            dtype=meta["dtype"],
        )
    if layout == CSR_FORMAT:
        return SparseTopKSimilarity(
            arrays["q_data"], arrays["q_indices"], arrays["q_indptr"],
            n=int(meta["n"]), k=int(meta["sparse_topk"]),
        )
    raise ConfigurationError(f"unknown similarity payload format {layout!r}")


def similarity_fingerprint(value: "np.ndarray | SimilarityMatrix") -> str:
    """Content hash of any Q form (used for injected-Q train stages).

    The factored form hashes its factors, never the n² matrix they define.
    """
    from repro.pipeline.fingerprint import array_fingerprint, fingerprint

    matrix = as_similarity_matrix(value)
    if isinstance(matrix, FactoredSimilarity):
        return fingerprint(
            {
                "kind": FACTOR_FORMAT,
                "dtype": matrix.dtype.name,
                "factors": [array_fingerprint(f) for f in matrix.factors],
            }
        )
    if isinstance(matrix, SparseTopKSimilarity):
        return fingerprint(
            {
                "kind": CSR_FORMAT,
                "k": matrix.k,
                "n": matrix.n,
                "data": array_fingerprint(matrix.data),
                "indices": array_fingerprint(matrix.indices),
                "indptr": array_fingerprint(matrix.indptr),
            }
        )
    return array_fingerprint(matrix.to_dense())

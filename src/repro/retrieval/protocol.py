"""Ground-truth relevance protocol.

Following §4.2: two images form a *similar pair* iff they share at least one
label; otherwise they are dissimilar.  Relevance matrices are boolean with
queries as rows.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


class LabelRelevance:
    """Relevance of any block of query rows, computed on demand from labels.

    The labels are checked and cast to float64 once, here; indexing with a
    row slice returns that block of :func:`relevance_matrix`, so a caller
    walking the queries in tiles never holds the whole matrix.
    """

    def __init__(self, query_labels: np.ndarray, db_labels: np.ndarray) -> None:
        q = np.asarray(query_labels)
        d = np.asarray(db_labels)
        if q.ndim != 2 or d.ndim != 2:
            raise ShapeError(
                f"labels must be 2-D multi-hot arrays, got {q.shape} and {d.shape}"
            )
        if q.shape[1] != d.shape[1]:
            raise ShapeError(
                f"label dimensions differ: {q.shape[1]} vs {d.shape[1]}"
            )
        # Integer labels (the int64 cast) multiplied in float64 so the
        # product runs in BLAS: a sum of non-negative products is > 0
        # exactly when one product is, however it rounds, so every block
        # of rows gives the same booleans.  Negative labels stay exact while
        # every product and partial sum is below 2**53 in magnitude.
        self._query = q.astype(np.int64).astype(np.float64)
        self._db = d.astype(np.int64).astype(np.float64)
        self.shape = (q.shape[0], d.shape[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return (self._query[rows] @ self._db.T) > 0


def relevance_matrix(query_labels: np.ndarray, db_labels: np.ndarray) -> np.ndarray:
    """Boolean (n_query, n_db) matrix: share >= 1 label (paper §4.2)."""
    return LabelRelevance(query_labels, db_labels)[:]

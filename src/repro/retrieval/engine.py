"""Hamming retrieval engine and one-call evaluation harness.

:class:`HammingIndex` is the production-shaped piece: bit-packed storage,
top-k Hamming ranking and radius lookup over an incrementally mutable corpus
— what a deployed image-search system built on these hash codes would run.
It is the only index type; :class:`~repro.retrieval.sharded.ShardedIndex`
partitions rows across several of them.

:func:`evaluate_hashing` is the experiment-shaped piece: given a fitted
hashing method and a dataset it computes every §4.2 metric in one pass.

Incremental semantics: ``add()`` appends (stable insertion-order ids),
``remove(ids)`` drops rows by id without renumbering survivors, and all
input validation happens at mutation time — queries are validated once per
call, never per database row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import NotFittedError, ShapeError
from repro.retrieval.hamming import PackedCodes, packed_hamming_distance
from repro.retrieval.metrics import (
    PAPER_MAP_DEPTH,
    PAPER_PN_POINTS,
    PRCurve,
    _check_top_n,
    _evaluate_tiles,
)
from repro.retrieval.protocol import LabelRelevance
from repro.utils.validation import check_binary_codes


class Hasher(Protocol):
    """Anything that maps images to ±1 codes (UHSCM and all baselines)."""

    def encode(self, images: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


class HammingIndex:
    """Bit-packed brute-force Hamming index with incremental updates.

    Parameters
    ----------
    n_bits:
        Code length ``k``.
    """

    def __init__(self, n_bits: int) -> None:
        if n_bits <= 0:
            raise ShapeError(f"n_bits must be positive: {n_bits}")
        self.n_bits = n_bits
        self._bits = np.empty((0, (n_bits + 7) // 8), dtype=np.uint8)
        self._ids = np.empty(0, dtype=np.int64)
        self._next_id = 0

    # -- mutation ---------------------------------------------------------------

    def add(self, codes: np.ndarray) -> "HammingIndex":
        """Append ±1 codes; new rows get the next insertion-order ids."""
        packed = self._pack(codes)
        self._bits = np.concatenate([self._bits, packed.bits])
        self._ids = np.concatenate([
            self._ids,
            np.arange(self._next_id, self._next_id + len(packed), dtype=np.int64),
        ])
        self._next_id += len(packed)
        return self

    def remove(self, ids: np.ndarray) -> int:
        """Remove rows by stable id (unknown ids are ignored).

        Returns the number of rows actually removed.  Surviving rows keep
        their ids.
        """
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        keep = ~np.isin(self._ids, ids)
        removed = int(self._ids.size - keep.sum())
        if removed:
            self._bits = self._bits[keep]
            self._ids = self._ids[keep]
        return removed

    def clear(self) -> "HammingIndex":
        """Drop all rows (ids keep counting up across clears)."""
        self._bits = self._bits[:0]
        self._ids = self._ids[:0]
        return self

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._ids.size

    @property
    def storage_bytes(self) -> int:
        """Bytes used to store the database codes."""
        return int(self._bits.nbytes)

    # -- validation helpers -----------------------------------------------------

    def _pack(self, codes: np.ndarray, name: str = "codes") -> PackedCodes:
        """Validate (once) and bit-pack a ±1 matrix of this index's width."""
        codes = check_binary_codes(codes, name)
        if codes.shape[1] != self.n_bits:
            raise ShapeError(
                f"expected {self.n_bits}-bit {name}, got {codes.shape[1]}"
            )
        return PackedCodes(bits=np.packbits(codes > 0, axis=1),
                           n_bits=self.n_bits)

    def _require_built(self) -> PackedCodes:
        if self._ids.size == 0:
            raise NotFittedError("index is empty; call add() first")
        return PackedCodes(bits=self._bits, n_bits=self.n_bits)

    # -- queries ----------------------------------------------------------------

    def search(
        self, query_codes: np.ndarray, top_k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k Hamming ranking: returns (ids, distances).

        Ties break by id (stable), matching the metric module.
        """
        packed_db = self._require_built()
        if top_k <= 0 or top_k > len(packed_db):
            raise ShapeError(
                f"top_k must be in [1, {len(packed_db)}], got {top_k}"
            )
        packed_q = self._pack(query_codes, "query_codes")
        distances = packed_hamming_distance(packed_q, packed_db)
        # Fold the id tie-break into one collision-free composite key
        # (distance major, id minor): selection can then use O(n)
        # argpartition instead of a full sort and still return exactly
        # the stable (distance, id) ranking.  int32 keys when they fit
        # (the common case) halve the partition's memory traffic.
        ctype = (np.int32
                 if (self.n_bits + 1) * self._next_id < 2**31
                 else np.int64)
        composite = distances.astype(ctype)
        composite *= ctype(self._next_id)
        composite += self._ids.astype(ctype)[None, :]
        if top_k < distances.shape[1]:
            part = np.argpartition(composite, top_k - 1, axis=1)[:, :top_k]
            order = np.argsort(
                np.take_along_axis(composite, part, axis=1), axis=1
            )
            idx = np.take_along_axis(part, order, axis=1)
        else:
            idx = np.argsort(composite, axis=1)
        dist = np.take_along_axis(distances, idx, axis=1).astype(np.float64)
        return self._ids[idx], dist

    def radius_search(self, query_codes: np.ndarray, radius: int) -> list[np.ndarray]:
        """Hash-lookup: ids of all alive rows within Hamming radius per query."""
        packed_db = self._require_built()
        if not 0 <= radius <= self.n_bits:
            raise ShapeError(f"radius must be in [0, {self.n_bits}], got {radius}")
        packed_q = self._pack(query_codes, "query_codes")
        distances = packed_hamming_distance(packed_q, packed_db)
        return [self._ids[row <= radius] for row in distances]


@dataclass(frozen=True)
class RetrievalReport:
    """Every §4.2 metric for one (method, dataset, bit-length) cell."""

    map: float
    precision_at_n: dict[int, float]
    pr_curve: PRCurve
    n_bits: int

    def __str__(self) -> str:
        pn = ", ".join(f"P@{n}={v:.3f}" for n, v in self.precision_at_n.items())
        return f"RetrievalReport(k={self.n_bits}, MAP={self.map:.3f}, {pn})"


def evaluate_codes(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    query_labels: np.ndarray,
    db_labels: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
    pn_points: tuple[int, ...] = PAPER_PN_POINTS,
) -> RetrievalReport:
    """Full evaluation of precomputed hash codes.

    The queries are walked in tiles of packed Hamming distances: each query
    is ranked once, on integer keys, for MAP and P@N together, and its
    distances are counted for the PR curve.  Only one tile's distances and
    relevance exist at a time, and the report is byte-identical to ranking
    the whole matrix at once.
    """
    relevance = LabelRelevance(query_labels, db_labels)
    n_db = len(db_codes)
    usable_points = tuple(p for p in pn_points if p <= n_db)
    if not usable_points and pn_points:
        # Every requested point exceeds the database; clamp to its size
        # (order-independent — pn_points need not be sorted).
        usable_points = (n_db,)
    top_n = min(top_n, n_db)
    _check_top_n(top_n)
    map_, pn, pr = _evaluate_tiles(query_codes, db_codes, relevance, top_n,
                                   usable_points, pr=True)
    return RetrievalReport(map=map_, precision_at_n=pn, pr_curve=pr,
                           n_bits=np.shape(query_codes)[1])


def evaluate_hashing(method: Hasher, dataset, **kwargs) -> RetrievalReport:
    """Encode a dataset's query/database splits with ``method`` and evaluate.

    ``dataset`` is a :class:`~repro.datasets.base.HashingDataset`; extra
    keyword arguments pass through to :func:`evaluate_codes`.
    """
    query_codes = method.encode(dataset.query_images)
    db_codes = method.encode(dataset.database_images)
    return evaluate_codes(
        query_codes,
        db_codes,
        dataset.query_labels,
        dataset.database_labels,
        **kwargs,
    )

"""Retrieval quality metrics: MAP@n, P@N curves, Hamming-radius PR curves.

These implement the paper's three evaluation metrics (§4.2):

- **MAP** with top-n truncation (Eq. 12; the paper uses n = 5000),
- **P@N** — precision among the top-N Hamming-ranked results,
- **PR curve** — precision/recall of hash-lookup as the Hamming radius
  sweeps 0..k (Figure 3's protocol).

All ranking uses stable sorts so ties in Hamming distance break by database
index, making results deterministic.  Distances that are small non-negative
integers (every Hamming matrix) are ranked on uint8/uint16 keys, which
numpy's stable sort orders with a radix sort; the order is the one the
float sort gives, since both keep equal distances in database order.  Any
other distance matrix is ranked on its own values.

The metrics that start from codes (:func:`mean_average_precision`,
:func:`pr_curve_hamming` and the engine's ``evaluate_codes``) walk the
queries in tiles of packed Hamming distances (:func:`_evaluate_tiles`), so
none of them holds a whole (query, database) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.retrieval.hamming import (
    PackedCodes,
    pack_codes,
    packed_hamming_distance,
    query_tile_rows,
)
from repro.retrieval.protocol import LabelRelevance

#: The paper's MAP truncation depth (§4.2: "we set n as 5000").
PAPER_MAP_DEPTH = 5000

#: P@N evaluation points used in Figure 2.
PAPER_PN_POINTS: tuple[int, ...] = (100, 300, 500, 700, 900, 1000)

#: Bytes per (query, database) pair that an evaluation tile holds at its
#: peak: an 8-byte array (the float64 relevance product, the intp ranking
#: or bincount's intp copy of the keys) beside the uint8 keys, the boolean
#: relevance and their leftovers.
_TILE_PAIR_BYTES = 12

#: Fewest query rows per evaluation tile.  Each tile's relevance product
#: streams every database label row, so at paper scale (190,834 rows, two
#: rows per 8 MiB tile) thin tiles spend their time re-reading labels.
_MIN_TILE_ROWS = 16


def _check_rank_inputs(distances: np.ndarray, relevance: np.ndarray) -> None:
    if distances.shape != relevance.shape:
        raise ShapeError(
            f"distances {distances.shape} and relevance {relevance.shape} differ"
        )
    if distances.ndim != 2:
        raise ShapeError(f"expected 2-D matrices, got {distances.shape}")


def _check_top_n(top_n: int) -> None:
    if top_n < 1:
        raise ShapeError(f"top_n must be >= 1, got {top_n}")


def _sort_keys(distances: np.ndarray) -> np.ndarray:
    """Keys whose stable row sort gives the order of ``distances``.

    Non-negative integers up to 65535 come back as the narrowest of uint8
    and uint16 holding them (numpy radix-sorts those); anything else,
    including fractional, negative or NaN entries, comes back unchanged.
    """
    if distances.size:
        lo, hi = distances.min(), distances.max()
        if lo >= 0 and hi <= np.iinfo(np.uint16).max:
            keys = distances.astype(
                np.uint8 if hi <= np.iinfo(np.uint8).max else np.uint16
            )
            if np.array_equal(keys, distances):
                return keys
    return distances


def _ranked_relevance(
    keys: np.ndarray, relevance: np.ndarray, depth: int
) -> np.ndarray:
    """Relevance of each query's ``depth`` best-ranked items, in rank order
    (ties by database index), in ``relevance``'s own dtype."""
    order = np.argsort(keys, axis=1, kind="stable")
    return np.take_along_axis(relevance, order[:, :depth], axis=1)


def _average_precisions(ranked: np.ndarray) -> np.ndarray:
    """AP of each row of ranked relevance already cut to the top n (0 for
    a row with no relevant item).

    numpy sums each contiguous row of a 2-D array pairwise, as it sums a
    1-D vector, so a row's AP is the same float whether it is scored alone
    or in a batch.
    """
    rel = ranked.astype(np.float64)
    n_rel = rel.sum(axis=1)
    cum_precision = np.cumsum(rel, axis=1)
    cum_precision /= np.arange(1, rel.shape[1] + 1)
    cum_precision *= rel
    aps = np.zeros_like(n_rel)
    np.divide(cum_precision.sum(axis=1), n_rel, out=aps, where=n_rel != 0)
    return aps


def _precision_columns(
    ranked: np.ndarray, points: tuple[int, ...]
) -> np.ndarray:
    """Precision among each query's top N of ranked relevance: one
    contiguous row per N in ``points``, one column per query."""
    cum = np.cumsum(ranked[:, :max(points)].astype(np.float64), axis=1)
    return np.stack([cum[:, n - 1] / n for n in points])


def average_precision(ranked_relevance: np.ndarray, top_n: int) -> float:
    """AP@n of one ranked relevance vector (paper Eq. 12).

    ``AP = Σ_i [I(i)/N · Σ_{j<=i} I(j)/i]`` over the top ``n`` results,
    where ``N`` is the number of relevant items among them.  Queries with no
    relevant item in the top n score 0 (the usual convention).  ``top_n``
    must be at least 1.
    """
    _check_top_n(top_n)
    rel = np.asarray(ranked_relevance, dtype=np.float64)[:top_n]
    return float(_average_precisions(rel[None, :])[0])


def mean_average_precision(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
) -> float:
    """MAP@n over Hamming-ranked retrieval (the paper's headline metric)."""
    _check_top_n(top_n)
    map_, _, _ = _evaluate_tiles(query_codes, db_codes,
                                 np.asarray(relevance), top_n, (), pr=False)
    return map_


def mean_average_precision_from_distances(
    distances: np.ndarray,
    relevance: np.ndarray,
    top_n: int = PAPER_MAP_DEPTH,
) -> float:
    """MAP@n given a precomputed distance matrix (``top_n`` >= 1)."""
    _check_rank_inputs(distances, relevance)
    _check_top_n(top_n)
    ranked = _ranked_relevance(_sort_keys(distances), relevance, top_n)
    return float(np.mean(_average_precisions(ranked)))


def precision_at_n(
    distances: np.ndarray,
    relevance: np.ndarray,
    points: tuple[int, ...] = PAPER_PN_POINTS,
) -> dict[int, float]:
    """Mean precision among the top-N results for each N (Figure 2).

    ``points`` may be unsorted; an empty tuple yields an empty dict.
    """
    _check_rank_inputs(distances, relevance)
    if not points:
        return {}
    max_n = max(points)
    if max_n > distances.shape[1]:
        raise ShapeError(
            f"P@{max_n} requested but database has {distances.shape[1]} items"
        )
    columns = _precision_columns(
        _ranked_relevance(_sort_keys(distances), relevance, max_n), points)
    return {n: float(columns[row].mean()) for row, n in enumerate(points)}


@dataclass(frozen=True)
class PRCurve:
    """Precision/recall at each Hamming radius 0..k (Figure 3's protocol).

    ``precision[r]`` / ``recall[r]`` aggregate retrieval within radius ``r``
    micro-averaged over queries (total relevant retrieved / total retrieved),
    which keeps small radii well-defined even when some queries retrieve
    nothing.
    """

    radii: np.ndarray
    precision: np.ndarray
    recall: np.ndarray

    def __post_init__(self) -> None:
        if not (self.radii.shape == self.precision.shape == self.recall.shape):
            raise ShapeError("PRCurve arrays must share one shape")


def pr_curve_hamming(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray,
) -> PRCurve:
    """PR curve from a full Hamming-radius sweep (0..k, step 1)."""
    _, _, curve = _evaluate_tiles(query_codes, db_codes,
                                  np.asarray(relevance), 0, (), pr=True)
    return curve


def _evaluate_tiles(
    query_codes: np.ndarray,
    db_codes: np.ndarray,
    relevance: np.ndarray | LabelRelevance,
    top_n: int,
    points: tuple[int, ...],
    pr: bool,
) -> tuple[float | None, dict[int, float], PRCurve | None]:
    """MAP@top_n (skipped at 0), P@N at ``points`` and, with ``pr``, the PR
    curve over radii 0..k, one tile of query rows at a time.

    ``relevance`` is a (query, database) matrix or a
    :class:`LabelRelevance`; only one tile of its rows exists at a time.  Each tile ranks its queries once, on
    integer keys of their packed Hamming distances, to depth
    ``max(top_n, max(points))``.  Its per-query APs and precisions land in
    whole-query arrays, and its distances are counted into one integer
    histogram.  Query rows are independent and each row is summed on its
    own, so every figure equals the one-matrix computation byte for byte.
    """
    q, db = pack_codes(query_codes), pack_codes(db_codes)
    if q.n_bits != db.n_bits:
        raise ShapeError(f"code lengths differ: {q.n_bits} vs {db.n_bits}")
    if tuple(relevance.shape) != (len(q), len(db)):
        raise ShapeError(
            f"relevance {relevance.shape} does not match {len(q)} query "
            f"and {len(db)} database codes"
        )
    k = q.n_bits
    depth = max((top_n, *points))
    aps = np.empty(len(q))
    precision = np.empty((len(points), len(q)))
    # One histogram over (relevance, distance): an irrelevant pair at
    # distance d counts in bin d, a relevant one in bin k + 1 + d.
    hist = np.zeros(2 * (k + 1), dtype=np.intp)
    bin_dtype = np.min_scalar_type(2 * k + 1)
    rows = max(_MIN_TILE_ROWS, query_tile_rows(len(db), _TILE_PAIR_BYTES))
    for start in range(0, len(q), rows):
        tile = slice(start, start + rows)
        keys = packed_hamming_distance(PackedCodes(q.bits[tile], k), db)
        if k <= np.iinfo(np.uint8).max:
            keys = keys.astype(np.uint8)
        rel = relevance[tile]
        if depth:
            ranked = _ranked_relevance(keys, rel, depth)
            if top_n:
                aps[tile] = _average_precisions(ranked[:, :top_n])
            if points:
                precision[:, tile] = _precision_columns(ranked, points)
        if pr:
            bins = rel.astype(bool, copy=False).astype(bin_dtype)
            bins *= k + 1
            bins += keys
            hist += np.bincount(bins.ravel(), minlength=hist.size)

    pn = {n: float(precision[row].mean()) for row, n in enumerate(points)}
    curve = None
    if pr:
        relevant_hist = hist[k + 1 :]
        total_relevant = int(relevant_hist.sum())
        if total_relevant == 0:
            raise ShapeError("relevance matrix has no relevant pairs")
        relevant_cum = np.cumsum(relevant_hist).astype(np.float64)
        all_cum = np.cumsum(hist[: k + 1] + relevant_hist).astype(np.float64)
        curve = PRCurve(
            radii=np.arange(k + 1),
            precision=np.divide(relevant_cum, all_cum,
                                out=np.zeros_like(relevant_cum),
                                where=all_cum > 0),
            recall=relevant_cum / float(total_relevant),
        )
    return (float(np.mean(aps)) if top_n else None), pn, curve

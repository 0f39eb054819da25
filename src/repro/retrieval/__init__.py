"""Hamming retrieval engine and the paper's evaluation protocol (§4.2).

:class:`HammingIndex` is the one index type: a bit-packed linear scan that
gives the exact Hamming ranking.  :class:`ShardedIndex` hash-partitions
rows across several of them, with an optional LRU
:class:`QueryResultCache` of merged results; its answers are
bit-identical to one flat index over the same rows.  Both support
incremental ``add()``/``remove()`` with stable insertion-order ids.
"""

from repro.retrieval.engine import (
    HammingIndex,
    Hasher,
    RetrievalReport,
    evaluate_codes,
    evaluate_hashing,
)
from repro.retrieval.hamming import (
    PackedCodes,
    hamming_distance_matrix,
    pack_codes,
    packed_hamming_distance,
    unpack_codes,
)
from repro.retrieval.sharded import QueryResultCache, ShardedIndex
from repro.retrieval.metrics import (
    PAPER_MAP_DEPTH,
    PAPER_PN_POINTS,
    PRCurve,
    average_precision,
    mean_average_precision,
    mean_average_precision_from_distances,
    pr_curve_hamming,
    precision_at_n,
)
from repro.retrieval.protocol import relevance_matrix

__all__ = [
    "HammingIndex",
    "Hasher",
    "PAPER_MAP_DEPTH",
    "PAPER_PN_POINTS",
    "PRCurve",
    "PackedCodes",
    "QueryResultCache",
    "RetrievalReport",
    "ShardedIndex",
    "average_precision",
    "evaluate_codes",
    "evaluate_hashing",
    "hamming_distance_matrix",
    "mean_average_precision",
    "mean_average_precision_from_distances",
    "pack_codes",
    "packed_hamming_distance",
    "pr_curve_hamming",
    "precision_at_n",
    "relevance_matrix",
    "unpack_codes",
]

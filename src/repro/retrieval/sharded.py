"""Hash-partitioned Hamming index: N flat indexes behind one facade.

:class:`ShardedIndex` holds one :class:`~repro.retrieval.engine.HammingIndex`
per shard.  Rows are partitioned by stable id (``id % n_shards``) so
``add``/``remove`` route deterministically, ``search``/``radius_search``
fan out across every shard, and per-shard top-k results merge with
``(distance, id)`` tie-breaking — bit-identical to the same rows held in a
single index, which is what lets the serving layer
(:mod:`repro.serving`) scale the database out without changing a single
result.

Each shard numbers its rows locally in its own insertion order; the
facade keeps one append-only ``local -> global`` id array per shard (global
ids are assigned monotonically, so each array stays sorted and the reverse
``global -> local`` lookup is a binary search).  Shards never renumber on
``remove``, so the arrays are valid for the lifetime of the index.

**Query-result cache**: with ``cache_size > 0`` the facade keeps a
:class:`QueryResultCache`, a bounded LRU of merged per-query results
keyed on the packed query bytes, cleared on every ``add``/``remove``.

**Fan-out**: a search is one :meth:`~repro.utils.parallel.WorkerPool.map`
of the non-empty shards' searches, in shard order, on a shared
:class:`~repro.utils.parallel.WorkerPool` (inline at ``workers=1``).  The
pool collects results in shard order, per-shard result blocks are
concatenated in that order, and the ``(distance, id)`` composite-key merge
is a stable sort, so completion order cannot reorder anything and pooled
answers are bit-identical to serial ones.  Every shard lives in this
process, so a shard can fail only by a bug: its exception propagates out
of the search and fails that query alone, and the next query answers.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable

import numpy as np

from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.retrieval.engine import HammingIndex
from repro.utils.parallel import WorkerPool
from repro.utils.validation import check_binary_codes


class QueryResultCache:
    """Bounded LRU cache for per-query retrieval results.

    Keys are built by the owning index from the packed query bytes plus the
    query parameters, so identical queries at identical settings hit.  The
    index clears the cache on every ``add``/``remove``.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ConfigurationError(
                f"cache max_entries must be positive, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Hashable):
        """Return the cached value (refreshing recency) or ``None``."""
        try:
            value = self._data.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._data[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        self._data.pop(key, None)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


def cached_topk(
    cache: QueryResultCache,
    packed_bits: np.ndarray,
    top_k: int,
    compute: Callable[[list[int]], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Miss/fill loop for cached batched top-k serving.

    ``packed_bits`` is the per-query key material (one packed uint8 row per
    query); ``compute(miss_positions)`` returns ``(ids, distances)`` for
    just that subset of queries.  Cached entries are stored as copies so a
    caller mutating its results never corrupts the cache.
    """
    n_queries = packed_bits.shape[0]
    out_ids = np.empty((n_queries, top_k), dtype=np.int64)
    out_dist = np.empty((n_queries, top_k), dtype=np.float64)
    misses = []
    for qi in range(n_queries):
        hit = cache.get(("top_k", top_k, packed_bits[qi].tobytes()))
        if hit is None:
            misses.append(qi)
        else:
            out_ids[qi], out_dist[qi] = hit
    if misses:
        fresh_ids, fresh_dist = compute(misses)
        for pos, qi in enumerate(misses):
            out_ids[qi], out_dist[qi] = fresh_ids[pos], fresh_dist[pos]
            cache.put(
                ("top_k", top_k, packed_bits[qi].tobytes()),
                (fresh_ids[pos].copy(), fresh_dist[pos].copy()),
            )
    return out_ids, out_dist


def cached_radius(
    cache: QueryResultCache,
    packed_bits: np.ndarray,
    radius: int,
    compute: Callable[[list[int]], "list[np.ndarray]"],
) -> "list[np.ndarray]":
    """Miss/fill loop for cached batched radius serving.

    Like :func:`cached_topk` but for per-query hit lists: the cache keeps
    the canonical arrays and every caller receives copies.
    """
    results: list[np.ndarray | None] = [None] * packed_bits.shape[0]
    misses = []
    for qi in range(packed_bits.shape[0]):
        hit = cache.get(("radius", radius, packed_bits[qi].tobytes()))
        if hit is None:
            misses.append(qi)
        else:
            results[qi] = hit.copy()
    if misses:
        for qi, hits in zip(misses, compute(misses)):
            cache.put(("radius", radius, packed_bits[qi].tobytes()), hits)
            results[qi] = hits.copy()
    return results


class ShardedIndex:
    """Hash-partitioned Hamming index over ``n_shards`` flat indexes.

    Parameters
    ----------
    n_bits:
        Code length ``k``.
    n_shards:
        Number of partitions; rows route to shard ``id % n_shards``.
    cache_size:
        If positive, keep an LRU :class:`QueryResultCache` of merged
        per-query results at the facade level, cleared on every mutation.
    workers:
        Worker count for the concurrent shard fan-out (``None`` reads
        ``$REPRO_WORKERS``; ``1`` runs the shard searches inline).  Pure
        execution policy — merged results are bit-identical at any value.
    """

    def __init__(
        self,
        n_bits: int,
        n_shards: int = 4,
        cache_size: int = 0,
        workers: int | None = None,
    ) -> None:
        if n_bits <= 0:
            raise ShapeError(f"n_bits must be positive: {n_bits}")
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive: {n_shards}")
        self.n_bits = n_bits
        self.n_shards = n_shards
        self._shards = [HammingIndex(n_bits) for _ in range(n_shards)]
        #: Per shard, the append-only ``local -> global`` id array (global
        #: ids are assigned monotonically, so each stays sorted ascending).
        self._shard_gids = [np.empty(0, dtype=np.int64)
                            for _ in range(n_shards)]
        self._next_id = 0
        self._n_alive = 0
        self._cache = QueryResultCache(cache_size) if cache_size else None
        self._pool = WorkerPool(workers, name="shard")

    # -- mutation ---------------------------------------------------------------

    def add(self, codes: np.ndarray) -> "ShardedIndex":
        """Append ±1 codes; new rows get the next insertion-order ids."""
        codes = self._check_codes(codes)
        gids = np.arange(self._next_id, self._next_id + codes.shape[0],
                         dtype=np.int64)
        shard_of = gids % self.n_shards
        for si in range(self.n_shards):
            mask = shard_of == si
            if not mask.any():
                continue
            self._shards[si].add(codes[mask])
            self._shard_gids[si] = np.concatenate(
                [self._shard_gids[si], gids[mask]]
            )
        self._next_id += codes.shape[0]
        self._n_alive += codes.shape[0]
        if self._cache is not None:
            self._cache.clear()
        return self

    def remove(self, ids: np.ndarray) -> int:
        """Remove rows by stable global id (unknown ids are ignored)."""
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        ids = np.unique(ids[(ids >= 0) & (ids < self._next_id)])
        removed = 0
        for si in range(self.n_shards):
            sel = ids[ids % self.n_shards == si]
            if sel.size == 0:
                continue
            local = np.searchsorted(self._shard_gids[si], sel)
            # Every in-range id routed here was added here, so the lookup
            # always lands; the shard ignores already-removed locals.
            removed += self._shards[si].remove(local)
        self._n_alive -= removed
        if removed and self._cache is not None:
            self._cache.clear()
        return removed

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n_alive

    @property
    def cache(self) -> QueryResultCache | None:
        """The merged-result cache, or ``None`` when caching is off."""
        return self._cache

    @property
    def shard_sizes(self) -> tuple[int, ...]:
        """Alive row count per shard."""
        return tuple(len(shard) for shard in self._shards)

    @property
    def shards(self) -> tuple[HammingIndex, ...]:
        """The per-shard indexes (read-only view; do not mutate directly)."""
        return tuple(self._shards)

    @property
    def workers(self) -> int:
        """Effective worker count of the fan-out pool (1 = serial)."""
        return self._pool.workers

    def pool_stats(self) -> dict:
        """The fan-out pool's worker count, mode, and task counters."""
        return self._pool.stats()

    def close(self) -> None:
        """Join the fan-out pool's workers (idempotent).

        Part of graceful service shutdown: after closing, the pool refuses
        new shard searches, its submitted/completed counters are balanced, and no
        worker thread outlives the index.  Searches after ``close`` raise
        :class:`~repro.errors.ConfigurationError` from the pool.
        """
        self._pool.close()

    # -- validation -------------------------------------------------------------

    def _check_codes(self, codes: np.ndarray, name: str = "codes") -> np.ndarray:
        codes = check_binary_codes(codes, name)
        if codes.shape[1] != self.n_bits:
            raise ShapeError(
                f"expected {self.n_bits}-bit {name}, got {codes.shape[1]}"
            )
        return codes

    def _require_built(self) -> None:
        if self._n_alive == 0:
            raise NotFittedError("index is empty; call add() first")

    # -- queries ----------------------------------------------------------------

    def _fan_out(self, op: Callable[[HammingIndex], object]) -> list:
        """``[(shard index, op(shard))]`` over the non-empty shards, in
        shard order; the first shard exception propagates."""
        live = [si for si, shard in enumerate(self._shards) if len(shard) > 0]
        return list(zip(live, self._pool.map(
            lambda si: op(self._shards[si]), live)))

    def _fan_out_topk(
        self, query_codes: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search every non-empty shard and merge by (distance, global id)."""
        results = self._fan_out(
            lambda index: index.search(query_codes,
                                       top_k=min(top_k, len(index)))
        )
        all_gids = np.concatenate(
            [self._shard_gids[si][local_ids] for si, (local_ids, _) in results],
            axis=1,
        )
        all_dist = np.concatenate([dist for _, (_, dist) in results], axis=1)
        # One composite int key per candidate gives a row-wise lexsort by
        # (distance, id): distances are integers in [0, n_bits] and ids are
        # below _next_id, so the product never collides or overflows.
        composite = (all_dist.astype(np.int64) * np.int64(self._next_id)
                     + all_gids)
        order = np.argsort(composite, axis=1, kind="stable")[:, :top_k]
        return (np.take_along_axis(all_gids, order, axis=1),
                np.take_along_axis(all_dist, order, axis=1))

    def search(
        self, query_codes: np.ndarray, top_k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact merged top-k: (global ids, distances), ties by id."""
        self._require_built()
        if not 1 <= top_k <= self._n_alive:
            raise ShapeError(
                f"top_k must be in [1, {self._n_alive}], got {top_k}"
            )
        query_codes = self._check_codes(query_codes, "query_codes")
        if self._cache is None:
            return self._fan_out_topk(query_codes, top_k)
        return cached_topk(
            self._cache, np.packbits(query_codes > 0, axis=1), top_k,
            lambda misses: self._fan_out_topk(query_codes[misses], top_k),
        )

    def _fan_out_radius(
        self, query_codes: np.ndarray, radius: int
    ) -> list[np.ndarray]:
        per_query: list[list[np.ndarray]] = [
            [] for _ in range(query_codes.shape[0])
        ]
        for si, hits in self._fan_out(
            lambda index: index.radius_search(query_codes, radius)
        ):
            for qi, local_hits in enumerate(hits):
                per_query[qi].append(self._shard_gids[si][local_hits])
        return [np.sort(np.concatenate(blocks)) for blocks in per_query]

    def radius_search(
        self, query_codes: np.ndarray, radius: int
    ) -> list[np.ndarray]:
        """All alive global ids within ``radius`` per query, sorted."""
        self._require_built()
        if not 0 <= radius <= self.n_bits:
            raise ShapeError(
                f"radius must be in [0, {self.n_bits}], got {radius}"
            )
        query_codes = self._check_codes(query_codes, "query_codes")
        if self._cache is None:
            return self._fan_out_radius(query_codes, radius)
        return cached_radius(
            self._cache, np.packbits(query_codes > 0, axis=1), radius,
            lambda misses: self._fan_out_radius(query_codes[misses], radius),
        )

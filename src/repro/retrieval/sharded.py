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

**Graceful degradation** (PR 7): every shard sits behind a
:class:`~repro.utils.retry.CircuitBreaker`.  A shard that raises during
fan-out records a breaker failure and drops out of the merge — the query
still answers from the surviving shards, flagged via
:attr:`ShardedIndex.last_query_degraded`, which each calling thread reads
for its own most recent query (missing tail positions pad with id ``-1``
/ distance ``n_bits + 1``).  After ``breaker_threshold``
consecutive failures the circuit opens and the shard is skipped without
paying its failure latency until ``breaker_reset_s`` passes, when one
half-open probe is let through; a probe success closes the circuit and
:attr:`ShardedIndex.degraded` clears.  Only when *no* shard can answer
does the query raise :class:`~repro.errors.ShardUnavailableError`.
Degraded results never enter the facade's query cache.  Each shard call
first consults the index's :class:`~repro.utils.faults.FaultInjector` at
the ``shard.search`` point (with ``shard=<i>`` context), which is how the
fault-scale bench kills one shard deterministically.

**Concurrent fan-out** (PR 8): with ``workers > 1`` the surviving shard
probes of a fan-out run on a shared :class:`~repro.utils.parallel.WorkerPool`
instead of the serial Python loop.  The fan-out is two-phase so parallel
answers stay bit-identical to serial ones: phase 1 walks the shards *in
shard order* on the calling thread — breaker admission and the fault
injector consult happen exactly as they would serially, so deterministic
fault schedules and breaker transitions are untouched — and phase 2
dispatches only the admitted probes to the pool, collecting results and
applying breaker bookkeeping back in shard order.  Each probe touches
only its own shard object, per-shard result blocks are concatenated in
shard order, and the ``(distance, id)`` composite-key merge is a stable
sort — so completion order cannot reorder anything.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable

import numpy as np

from repro.errors import (
    ConfigurationError,
    NotFittedError,
    ShapeError,
    ShardUnavailableError,
)
from repro.retrieval.engine import HammingIndex
from repro.utils.faults import NULL_INJECTOR, FaultInjector
from repro.utils.parallel import WorkerPool
from repro.utils.retry import CLOSED, CircuitBreaker
from repro.utils.validation import check_binary_codes

_EMPTY_IDS = np.empty(0, dtype=np.int64)

#: Sentinel id padding partial (degraded) top-k rows past the last real hit.
MISSING_ID = -1


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
    breaker_threshold / breaker_reset_s / clock:
        Per-shard :class:`~repro.utils.retry.CircuitBreaker` tuning:
        consecutive failures before a shard's circuit opens, seconds until
        the half-open probe, and the (injectable) monotonic clock.
    faults:
        :class:`~repro.utils.faults.FaultInjector` consulted at the
        ``shard.search`` point before every shard call.
    workers:
        Worker count for the concurrent shard fan-out (``None`` reads
        ``$REPRO_WORKERS``; ``1`` keeps the serial probe loop).  Pure
        execution policy — merged results are bit-identical at any value.
    """

    def __init__(
        self,
        n_bits: int,
        n_shards: int = 4,
        cache_size: int = 0,
        breaker_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        faults: FaultInjector = NULL_INJECTOR,
        workers: int | None = None,
    ) -> None:
        if n_bits <= 0:
            raise ShapeError(f"n_bits must be positive: {n_bits}")
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive: {n_shards}")
        self.n_bits = n_bits
        self.n_shards = n_shards
        self.faults = faults
        self._init_shard_state(breaker_threshold, breaker_reset_s, clock)
        #: Per-thread state behind :attr:`last_query_degraded`.
        self._local = threading.local()
        self._next_id = 0
        self._n_alive = 0
        self._cache = QueryResultCache(cache_size) if cache_size else None
        self._pool = WorkerPool(workers, name="shard")

    def _init_shard_state(
        self,
        breaker_threshold: int,
        breaker_reset_s: float,
        clock: Callable[[], float],
    ) -> None:
        """Build all per-shard state in one pass — the single seam both the
        serial and the pooled fan-out initialize through.

        Per shard: the flat index, its circuit breaker, and the
        append-only ``local -> global`` id array (global ids are assigned
        monotonically, so each array stays sorted ascending by
        construction).
        """
        self._shards: list[HammingIndex] = []
        self._breakers: list[CircuitBreaker] = []
        self._shard_gids: list[np.ndarray] = []
        for _ in range(self.n_shards):
            self._shards.append(HammingIndex(self.n_bits))
            self._breakers.append(
                CircuitBreaker(failure_threshold=breaker_threshold,
                               reset_timeout_s=breaker_reset_s, clock=clock)
            )
            self._shard_gids.append(_EMPTY_IDS.copy())

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
    def breakers(self) -> tuple[CircuitBreaker, ...]:
        """The per-shard circuit breakers (read-only view)."""
        return tuple(self._breakers)

    @property
    def last_query_degraded(self) -> bool:
        """Whether the calling thread's most recent query answered from a
        shard subset.

        Kept per thread: concurrent queries each set and read their own
        flag, so a caller never sees another query's degradation.
        """
        return getattr(self._local, "degraded", False)

    @last_query_degraded.setter
    def last_query_degraded(self, value: bool) -> None:
        self._local.degraded = value

    @property
    def degraded(self) -> bool:
        """Whether any shard's circuit is currently not closed."""
        return any(b.state != CLOSED for b in self._breakers)

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
        new probes, its submitted/completed counters are balanced, and no
        worker thread outlives the index.  Searches after ``close`` raise
        :class:`~repro.errors.ConfigurationError` from the pool.
        """
        self._pool.close()

    def circuit_states(self) -> list[dict]:
        """Per-shard breaker state/counters for ``health()`` reports."""
        return [
            {"shard": si, **breaker.stats()}
            for si, breaker in enumerate(self._breakers)
        ]

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

    def _probe_shards(
        self, ops: list[tuple[int, Callable[[], object]]]
    ) -> tuple[list[tuple[int, object]], bool]:
        """Run shard operations under their breakers, two-phase.

        Phase 1 (serial, in shard order — exactly the serial loop's
        sequence): consult each shard's breaker, then the fault injector at
        ``shard.search``.  A refused or faulted shard records its breaker
        failure immediately and degrades the query; survivors are admitted.
        Phase 2: admitted probes dispatch to the pool (inline when the
        pool is serial); results are collected and breaker bookkeeping is
        applied back in shard order, so success/failure transitions land
        in the same sequence as the serial loop.

        Returns ``(results, degraded)`` where ``results`` is the
        shard-ordered list of ``(shard index, result)`` for every probe
        that answered.
        """
        admitted: list[tuple[int, object]] = []
        degraded = False
        for si, op in ops:
            breaker = self._breakers[si]
            if not breaker.allow():
                degraded = True
                continue
            try:
                self.faults.check("shard.search", shard=si)
            except Exception:
                breaker.record_failure()
                degraded = True
                continue
            admitted.append((si, self._pool.submit(op)))
        results: list[tuple[int, object]] = []
        for si, future in admitted:
            try:
                result = future.result()
            except Exception:
                self._breakers[si].record_failure()
                degraded = True
                continue
            self._breakers[si].record_success()
            results.append((si, result))
        return results, degraded

    def _fan_out_topk(
        self, query_codes: np.ndarray, top_k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Search every non-empty shard and merge by (distance, global id).

        A failing or circuit-open shard drops out of the merge: the query
        degrades to the surviving shards (``last_query_degraded=True``,
        missing tail positions padded with ``MISSING_ID`` / ``n_bits + 1``)
        instead of failing, unless *every* shard is unavailable.
        """
        ops = [
            (si, lambda s=shard, k=min(top_k, len(shard)):
                s.search(query_codes, top_k=k))
            for si, shard in enumerate(self._shards)
            if len(shard) > 0
        ]
        results, degraded = self._probe_shards(ops)
        gid_blocks = []
        dist_blocks = []
        for si, result in results:
            local_ids, dist = result
            gid_blocks.append(self._shard_gids[si][local_ids])
            dist_blocks.append(dist)
        if not gid_blocks:
            self.last_query_degraded = True
            raise ShardUnavailableError(
                f"all {self.n_shards} shards are unavailable; "
                f"no shard could answer this query"
            )
        self.last_query_degraded = degraded
        all_gids = np.concatenate(gid_blocks, axis=1)
        all_dist = np.concatenate(dist_blocks, axis=1)
        # One composite int key per candidate gives a row-wise lexsort by
        # (distance, id): distances are integers in [0, n_bits] and ids are
        # below _next_id, so the product never collides or overflows.
        composite = (all_dist.astype(np.int64) * np.int64(self._next_id)
                     + all_gids)
        order = np.argsort(composite, axis=1, kind="stable")[:, :top_k]
        merged_gids = np.take_along_axis(all_gids, order, axis=1)
        merged_dist = np.take_along_axis(all_dist, order, axis=1)
        if merged_gids.shape[1] < top_k:
            # Degraded answer with fewer survivors than top_k: pad the tail
            # so the result shape stays (n, top_k) for every caller.
            pad = top_k - merged_gids.shape[1]
            merged_gids = np.pad(merged_gids, ((0, 0), (0, pad)),
                                 constant_values=MISSING_ID)
            merged_dist = np.pad(merged_dist, ((0, 0), (0, pad)),
                                 constant_values=self.n_bits + 1)
        return merged_gids, merged_dist

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
        self.last_query_degraded = False
        if self._cache is None or self.degraded:
            # While any circuit is open the cache is bypassed entirely so
            # partial answers are never stored or served as full ones.
            return self._fan_out_topk(query_codes, top_k)
        out = cached_topk(
            self._cache, np.packbits(query_codes > 0, axis=1), top_k,
            lambda misses: self._fan_out_topk(query_codes[misses], top_k),
        )
        if self.last_query_degraded:
            self._cache.clear()  # a shard failed mid-fill; drop partials
        return out

    def _fan_out_radius(
        self, query_codes: np.ndarray, radius: int
    ) -> list[np.ndarray]:
        per_query: list[list[np.ndarray]] = [
            [] for _ in range(query_codes.shape[0])
        ]
        ops = [
            (si, lambda s=shard: s.radius_search(query_codes, radius))
            for si, shard in enumerate(self._shards)
            if len(shard) > 0
        ]
        results, degraded = self._probe_shards(ops)
        answered = False
        for si, hits in results:
            answered = True
            for qi, local_hits in enumerate(hits):
                per_query[qi].append(self._shard_gids[si][local_hits])
        if not answered and degraded:
            self.last_query_degraded = True
            raise ShardUnavailableError(
                f"all {self.n_shards} shards are unavailable; "
                f"no shard could answer this query"
            )
        self.last_query_degraded = degraded
        return [
            np.sort(np.concatenate(blocks)) if blocks else _EMPTY_IDS.copy()
            for blocks in per_query
        ]

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
        self.last_query_degraded = False
        if self._cache is None or self.degraded:
            return self._fan_out_radius(query_codes, radius)
        out = cached_radius(
            self._cache, np.packbits(query_codes > 0, axis=1), radius,
            lambda misses: self._fan_out_radius(query_codes[misses], radius),
        )
        if self.last_query_degraded:
            self._cache.clear()
        return out

"""Tests for the retrieval indexes: incremental add/remove semantics of the
flat and the sharded index, the sharded index's query-result LRU cache, and
its concurrent fan-out."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.retrieval import HammingIndex, QueryResultCache, ShardedIndex

#: The flat brute-force scan and the sharded facade over three of them.
INDEXES = ("bruteforce", "sharded")


def make_index(name, n_bits):
    if name == "bruteforce":
        return HammingIndex(n_bits)
    return ShardedIndex(n_bits, n_shards=3)


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def distinct_codes(n, k, seed=0):
    """±1 codes with pairwise-distinct rows (distinct k-bit integers)."""
    rng = np.random.default_rng(seed)
    values = rng.choice(1 << k, size=n, replace=False)
    bits = (values[:, None] >> np.arange(k)[None, :]) & 1
    return np.where(bits.astype(bool), 1.0, -1.0)


class TestIncrementalAdd:
    @pytest.mark.parametrize("name", INDEXES)
    def test_chunked_add_equals_one_shot(self, name):
        db = random_codes(120, 16, seed=1)
        queries = random_codes(6, 16, seed=2)
        one_shot = make_index(name, 16).add(db)
        chunked = make_index(name, 16)
        for chunk in np.array_split(db, 5):
            chunked.add(chunk)
        assert len(chunked) == len(one_shot) == 120
        for index_pair in (("search", 7), ("radius", 4)):
            kind, arg = index_pair
            if kind == "search":
                a = one_shot.search(queries, top_k=arg)
                b = chunked.search(queries, top_k=arg)
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
            else:
                for ra, rb in zip(one_shot.radius_search(queries, arg),
                                  chunked.radius_search(queries, arg)):
                    np.testing.assert_array_equal(ra, rb)

    @pytest.mark.parametrize("name", INDEXES)
    def test_ids_are_stable_across_adds(self, name):
        first = random_codes(10, 8, seed=3)
        second = random_codes(10, 8, seed=4)
        index = make_index(name, 8).add(first).add(second)
        # Searching for an exact code from the second batch must return its
        # insertion-order id (10 + offset), not a renumbered position.
        ids, dist = index.search(second[:1], top_k=1)
        assert dist[0, 0] == 0
        assert ids[0, 0] >= 10 or (first == second[0]).all(axis=1).any()


class TestRemove:
    @pytest.mark.parametrize("name", INDEXES)
    def test_remove_excludes_ids(self, name):
        db = random_codes(50, 16, seed=5)
        queries = random_codes(4, 16, seed=6)
        index = make_index(name, 16).add(db)
        removed = index.remove([0, 7, 49])
        assert removed == 3
        assert len(index) == 47
        ids, _ = index.search(queries, top_k=47)
        assert not set(ids.ravel()) & {0, 7, 49}
        for hits in index.radius_search(queries, 16):
            assert not set(hits) & {0, 7, 49}

    @pytest.mark.parametrize("name", INDEXES)
    def test_remove_unknown_ids_ignored(self, name):
        index = make_index(name, 8).add(random_codes(5, 8))
        assert index.remove([99, -3]) == 0
        assert index.remove([2, 2, 99]) == 1
        assert index.remove([2]) == 0  # already gone
        assert len(index) == 4

    @pytest.mark.parametrize("name", INDEXES)
    def test_remove_all_then_search_raises(self, name):
        index = make_index(name, 8).add(random_codes(3, 8))
        assert index.remove([0, 1, 2]) == 3
        with pytest.raises(NotFittedError):
            index.search(random_codes(1, 8), top_k=1)

    @pytest.mark.parametrize("name", INDEXES)
    def test_remove_then_add_id_stability(self, name):
        """Rows added after a removal get fresh ids; dead ids never return."""
        k = 16
        pool = distinct_codes(40, k, seed=40)  # pairwise-distinct rows
        first, second = pool[:30], pool[30:]
        index = make_index(name, k).add(first)
        assert index.remove(np.arange(10)) == 10
        index.add(second)
        assert len(index) == 30
        # each new row matches itself at distance 0 under a post-removal id
        ids, dist = index.search(second, top_k=1)
        assert (dist.ravel() == 0).all()
        assert (ids.ravel() >= 30).all()
        np.testing.assert_array_equal(ids.ravel(), np.arange(30, 40))
        # surviving old rows keep their original ids
        ids, dist = index.search(first[10:], top_k=1)
        assert (dist.ravel() == 0).all()
        np.testing.assert_array_equal(ids.ravel(), np.arange(10, 30))
        # removed ids never resurface in a full ranking
        all_ids, _ = index.search(second[:3], top_k=30)
        assert not set(all_ids.ravel()) & set(range(10))

    @pytest.mark.parametrize("name", INDEXES)
    def test_readding_removed_content_gets_fresh_ids(self, name):
        k = 16
        codes = distinct_codes(12, k, seed=42)
        index = make_index(name, k).add(codes)
        assert index.remove([3, 4]) == 2
        index.add(codes[3:5])  # identical content, new rows
        ids, dist = index.search(codes[3:5], top_k=1)
        assert (dist.ravel() == 0).all()
        np.testing.assert_array_equal(ids.ravel(), [12, 13])


class TestQueryResultCache:
    def test_lru_eviction(self):
        cache = QueryResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            QueryResultCache(0)

    def test_cached_results_match_uncached(self):
        db = random_codes(60, 16, seed=11)
        queries = random_codes(5, 16, seed=12)
        plain = ShardedIndex(16, n_shards=3).add(db)
        cached = ShardedIndex(16, n_shards=3, cache_size=32).add(db)
        for _ in range(2):  # second pass served from cache
            p = plain.search(queries, top_k=6)
            c = cached.search(queries, top_k=6)
            np.testing.assert_array_equal(p[0], c[0])
            np.testing.assert_array_equal(p[1], c[1])
            for rp, rc in zip(plain.radius_search(queries, 5),
                              cached.radius_search(queries, 5)):
                np.testing.assert_array_equal(rp, rc)
        assert cached.cache.hits > 0

    def test_cache_invalidated_on_mutation(self):
        db = random_codes(30, 8, seed=13)
        index = ShardedIndex(8, n_shards=3, cache_size=16).add(db)
        query = random_codes(1, 8, seed=14)
        index.search(query, top_k=3)
        assert len(index.cache) > 0
        index.add(random_codes(5, 8, seed=15))
        assert len(index.cache) == 0
        index.search(query, top_k=3)
        index.remove([0])
        assert len(index.cache) == 0

    def test_cache_returns_copies(self):
        db = random_codes(20, 8, seed=16)
        index = ShardedIndex(8, n_shards=3, cache_size=8).add(db)
        query = random_codes(1, 8, seed=17)
        hits = index.radius_search(query, 8)[0]
        hits[:] = -1  # caller mutates their copy
        fresh = index.radius_search(query, 8)[0]
        assert (fresh >= 0).all()
        ids, dist = index.search(query, top_k=5)
        want_ids, want_dist = ids.copy(), dist.copy()
        ids[:] = -1
        dist[:] = -1.0
        again_ids, again_dist = index.search(query, top_k=5)
        np.testing.assert_array_equal(again_ids, want_ids)
        np.testing.assert_array_equal(again_dist, want_dist)
        assert index.cache.hits == 2  # both repeats were served cached


class TestShardedWorkers:
    """Concurrent fan-out (PR 8): pooled probes are bit-identical to serial,
    including the composite-key ``(distance, id)`` tie-breaking."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_all_ties_merge_id_ascending(self, workers):
        # Every row identical: every candidate ties at distance 0, so the
        # merged top-k must fall back to pure id order regardless of which
        # worker thread returned its shard first.
        codes = np.tile(random_codes(1, 16), (12, 1))
        index = ShardedIndex(16, n_shards=3, workers=workers)
        index.add(codes)
        ids, dist = index.search(codes[:2], top_k=6)
        np.testing.assert_array_equal(ids, [[0, 1, 2, 3, 4, 5]] * 2)
        assert (dist == 0).all()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_adjacent_equal_distance_merge_is_deterministic(self, workers):
        # Duplicate pairs (ids 2i, 2i+1) land on different shards under
        # round-robin placement; the equal-distance candidates they produce
        # must interleave id-ascending, exactly like one flat index.
        base = distinct_codes(10, 16, seed=7)
        codes = np.repeat(base, 2, axis=0)
        sharded = ShardedIndex(16, n_shards=4, workers=workers)
        sharded.add(codes)
        ids, dist = sharded.search(base, top_k=8)
        reference = HammingIndex(16).add(codes)
        r_ids, r_dist = reference.search(base, top_k=8)
        np.testing.assert_array_equal(ids, r_ids)
        np.testing.assert_array_equal(dist, r_dist)
        # Each query's own duplicate pair heads the ranking, id-ascending.
        np.testing.assert_array_equal(ids[:, 0] + 1, ids[:, 1])
        np.testing.assert_array_equal(dist[:, 0], dist[:, 1])

    def test_pooled_results_match_serial(self):
        codes = random_codes(60, 16, seed=9)
        queries = random_codes(5, 16, seed=10)
        serial = ShardedIndex(16, n_shards=4, workers=1).add(codes)
        pooled = ShardedIndex(16, n_shards=4, workers=4).add(codes)
        for got, want in zip(pooled.search(queries, top_k=7),
                             serial.search(queries, top_k=7)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(pooled.radius_search(queries, 6),
                             serial.radius_search(queries, 6)):
            np.testing.assert_array_equal(got, want)
        # The effective count may clamp to os.cpu_count() on small boxes;
        # the pre-clamp request is what the pool plumbing owes us.
        assert pooled.pool_stats()["requested"] == 4
        assert serial.pool_stats()["serial"] is True

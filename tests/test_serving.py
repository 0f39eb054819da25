"""Tests for the online serving layer: sharded index, micro-batcher,
service facade, and store-backed model/index snapshots."""

import threading

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.persistence import save_uhscm
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError, NotFittedError, ShapeError
from repro.pipeline import ArtifactStore
from repro.retrieval import HammingIndex
from repro.serving import (
    INDEX_STAGE,
    EncodeBatcher,
    HashingService,
    ShardedIndex,
    load_model,
    publish_model,
)


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def identity_network(bits=16, dim=8, rng=0, dtype="float64"):
    return HashingNetwork(bits, mode="feature", feature_extractor=lambda x: x,
                         feature_dim=dim, rng=rng, dtype=dtype)


class TestShardedIndex:
    def test_partition_by_id_modulo(self):
        index = ShardedIndex(8, n_shards=3).add(random_codes(10, 8))
        assert index.shard_sizes == (4, 3, 3)  # ids 0,3,6,9 / 1,4,7 / 2,5,8
        assert len(index) == 10

    def test_merge_identical_to_single_index_under_churn(self):
        k = 32
        single = HammingIndex(k)
        sharded = ShardedIndex(k, n_shards=3)
        rng = np.random.default_rng(3)
        for step in range(3):
            batch = random_codes(50, k, seed=50 + step)
            single.add(batch)
            sharded.add(batch)
            drop = rng.choice((step + 1) * 50, size=9, replace=False)
            assert single.remove(drop) == sharded.remove(drop)
        queries = random_codes(6, k, seed=60)
        s_ids, s_dist = single.search(queries, top_k=17)
        m_ids, m_dist = sharded.search(queries, top_k=17)
        np.testing.assert_array_equal(s_ids, m_ids)
        np.testing.assert_array_equal(s_dist, m_dist)
        for radius in (0, 5, k):
            for a, b in zip(single.radius_search(queries, radius),
                            sharded.radius_search(queries, radius)):
                np.testing.assert_array_equal(a, b)

    def test_more_shards_than_rows(self):
        index = ShardedIndex(8, n_shards=6).add(random_codes(3, 8, seed=1))
        assert len(index) == 3
        assert sum(index.shard_sizes) == 3
        ids, dist = index.search(random_codes(2, 8, seed=2), top_k=3)
        brute = HammingIndex(8).add(random_codes(3, 8, seed=1))
        b_ids, b_dist = brute.search(random_codes(2, 8, seed=2), top_k=3)
        np.testing.assert_array_equal(ids, b_ids)
        np.testing.assert_array_equal(dist, b_dist)

    def test_empty_raises_not_fitted(self):
        with pytest.raises(NotFittedError):
            ShardedIndex(8).search(random_codes(1, 8), top_k=1)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardedIndex(8, n_shards=0)
        with pytest.raises(ShapeError):
            ShardedIndex(0)


class TestEncodeBatcher:
    def test_result_forces_flush(self):
        net = identity_network()
        callers = []

        def encode(matrix):
            callers.append(threading.get_ident())
            return net.encode(matrix)

        batcher = EncodeBatcher(encode, max_batch=100)
        ticket = batcher.submit(np.full(8, 0.5))
        code = ticket.result()
        np.testing.assert_array_equal(code, net.encode(np.full((1, 8), 0.5))[0])
        # A lone result() on an idle batcher leads at once: one 1-row
        # forward, run on the calling thread.
        assert callers == [threading.get_ident()]
        assert batcher.stats()["flush_sizes"] == {1: 1}

    def test_codes_match_bulk_encode(self):
        net = identity_network()
        vectors = np.random.default_rng(1).normal(size=(7, 8))
        batcher = EncodeBatcher(net, max_batch=4)
        tickets = [batcher.submit(v) for v in vectors]
        batcher.flush()
        got = np.stack([t.result() for t in tickets])
        np.testing.assert_array_equal(got, net.encode(vectors))

    def test_float32_dtype_policy(self):
        net = identity_network(dtype="float32")
        batcher = EncodeBatcher(net, max_batch=2)
        ticket = batcher.submit(np.random.default_rng(2).normal(size=8))
        assert ticket.result().shape == (16,)

    def test_stats_histogram(self):
        net = identity_network()
        batcher = EncodeBatcher(net, max_batch=2)
        for v in np.random.default_rng(3).normal(size=(5, 8)):
            batcher.submit(v)
        batcher.flush()
        stats = batcher.stats()
        assert stats["requests"] == 5
        assert stats["flush_sizes"] == {2: 2, 1: 1}
        assert stats["pending"] == 0

    def test_invalid_arguments(self):
        net = identity_network()
        with pytest.raises(ConfigurationError):
            EncodeBatcher(net, max_batch=0)
        with pytest.raises(ShapeError):
            EncodeBatcher(net).submit(np.float64(3.0))


class TestHashingService:
    def make_service(self, dim=8, bits=16, store=None, **kwargs):
        kwargs.setdefault("n_shards", 3)
        return HashingService(identity_network(bits, dim), store=store,
                              **kwargs)

    def test_query_matches_direct_backend(self):
        rng = np.random.default_rng(4)
        db = rng.normal(size=(60, 8))
        queries = rng.normal(size=(5, 8))
        service = self.make_service()
        service.load_database(db)
        ids, dist = service.query(queries, top_k=7)
        net = identity_network()
        reference = HammingIndex(16).add(net.encode(db))
        r_ids, r_dist = reference.search(net.encode(queries), top_k=7)
        np.testing.assert_array_equal(ids, r_ids)
        np.testing.assert_array_equal(dist, r_dist)

    def test_single_query_vector(self):
        rng = np.random.default_rng(5)
        service = self.make_service()
        service.load_database(rng.normal(size=(20, 8)))
        ids, dist = service.query(rng.normal(size=8), top_k=3)
        assert ids.shape == dist.shape == (1, 3)

    def test_add_remove_external_ids(self):
        rng = np.random.default_rng(6)
        service = self.make_service()
        db_ids = service.load_database(rng.normal(size=(10, 8)))
        np.testing.assert_array_equal(db_ids, np.arange(10))
        vectors = rng.normal(size=(3, 8))
        ext = service.add(vectors, ids=[500, 501, 502])
        np.testing.assert_array_equal(ext, [500, 501, 502])
        ids, dist = service.query(vectors, top_k=1)
        np.testing.assert_array_equal(ids.ravel(), [500, 501, 502])
        assert (dist.ravel() == 0).all()
        assert service.remove([501, 999]) == 1
        assert len(service) == 12
        ids, _ = service.query(vectors[1], top_k=12)
        assert 501 not in ids

    def test_duplicate_external_ids_raise(self):
        service = self.make_service()
        service.add(np.zeros((2, 8)), ids=[7, 8])
        with pytest.raises(ConfigurationError):
            service.add(np.ones((1, 8)), ids=[7])
        with pytest.raises(ConfigurationError):
            service.add(np.ones((2, 8)), ids=[9, 9])
        with pytest.raises(ShapeError):
            service.add(np.ones((2, 8)), ids=[1, 2, 3])

    def test_auto_ids_never_collide_with_caller_ids(self):
        # Auto-assigned ids are the internal counter; if a caller already
        # claimed one of those values the add must refuse, not remap it.
        service = self.make_service()
        service.add(np.zeros((1, 8)), ids=[2])  # internal 0 -> external 2
        with pytest.raises(ConfigurationError):
            service.add(np.ones((3, 8)))  # would auto-assign 1, 2, 3
        assert len(service) == 1  # nothing was indexed by the refused add

    def test_empty_query_raises(self):
        service = self.make_service()
        service.load_database(np.random.default_rng(12).normal(size=(6, 8)))
        with pytest.raises(ShapeError):
            service.query(np.empty((0, 8)))

    def test_stats_shape(self):
        rng = np.random.default_rng(7)
        service = self.make_service(cache_size=8)
        service.load_database(rng.normal(size=(12, 8)))
        service.query(rng.normal(size=(2, 8)), top_k=2)
        service.query(rng.normal(size=(2, 8)), top_k=2)
        stats = service.stats()
        assert stats["size"] == 12
        assert len(stats["shards"]) == 3
        assert stats["batcher"]["requests"] == 4
        assert "index" in stats["caches"]
        assert 0.0 <= stats["caches"]["index"]["hit_rate"] <= 1.0
        assert "store_stages" not in stats

    def test_store_snapshot_warm_restart(self, tmp_path):
        rng = np.random.default_rng(8)
        db = rng.normal(size=(30, 8))
        store = ArtifactStore(tmp_path / "cache")
        cold = self.make_service(store=store)
        cold.load_database(db, key={"name": "unit"})
        assert cold.stats()["database"] == {
            "encodes": 1, "warm_loads": 0, "snapshot_mmapped": False,
        }
        assert store.stats()["stages"][INDEX_STAGE]["puts"] == 1

        warm_store = ArtifactStore(tmp_path / "cache")
        warm = self.make_service(store=warm_store)
        warm.load_database(db, key={"name": "unit"})
        assert warm.stats()["database"] == {
            "encodes": 0, "warm_loads": 1, "snapshot_mmapped": False,
        }
        stages = warm_store.stats()["stages"][INDEX_STAGE]
        assert stages["puts"] == 1 and stages["misses"] == 1
        queries = rng.normal(size=(4, 8))
        a = cold.query(queries, top_k=5)
        b = warm.query(queries, top_k=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_unstaged_load_never_hashes_the_database(self, tmp_path,
                                                     monkeypatch):
        import repro.serving.service as service_module

        encode = lambda x: np.where(x[:, :4] > 0, 1.0, -1.0)  # noqa: E731
        unstaged = [
            self.make_service(),  # no store
            # A store, but a callable encoder has no model key.
            HashingService(encode, n_bits=4, store=ArtifactStore(tmp_path)),
        ]
        staged = self.make_service(store=ArtifactStore(tmp_path / "staged"))
        hashed = []
        real = service_module.array_fingerprint
        monkeypatch.setattr(service_module, "array_fingerprint",
                            lambda array: hashed.append(array) or real(array))
        rng = np.random.default_rng(13)
        for service in unstaged:
            service.load_database(rng.normal(size=(12, 8)))
            assert service.stats()["database"]["encodes"] == 1
        assert hashed == []
        # A staged, keyless load still addresses its snapshot by content.
        staged.load_database(rng.normal(size=(12, 8)))
        assert len(hashed) == 1

    def test_different_db_key_is_a_different_snapshot(self, tmp_path):
        rng = np.random.default_rng(9)
        store = ArtifactStore(tmp_path / "cache")
        first = self.make_service(store=store)
        first.load_database(rng.normal(size=(10, 8)), key={"name": "a"})
        second = self.make_service(store=store)
        second.load_database(rng.normal(size=(10, 8)), key={"name": "b"})
        assert second.stats()["database"]["encodes"] == 1

    def test_callable_encoder_needs_explicit_bits(self):
        encode = lambda x: np.where(x[:, :4] > 0, 1.0, -1.0)  # noqa: E731
        with pytest.raises(ConfigurationError):
            HashingService(encode)
        service = HashingService(encode, n_bits=4, n_shards=2)
        service.load_database(np.random.default_rng(10).normal(size=(8, 6)))
        assert len(service) == 8
        # no inspectable state -> no model key -> snapshots disabled
        assert service.model_key is None

    def test_default_service_has_one_shard(self):
        service = HashingService(identity_network())
        service.load_database(np.random.default_rng(11).normal(size=(6, 8)))
        assert service.index.n_shards == 1
        assert service.stats()["shards"] == [6]


@pytest.fixture()
def served_model(clip, cifar_tiny):
    config = UHSCMConfig(n_bits=16, train=TrainConfig(epochs=3), seed=0)
    model = UHSCM(config, clip=clip)
    model.fit(cifar_tiny.train_images)
    return model


class TestModelSnapshots:
    def test_publish_and_from_snapshot(self, served_model, clip, cifar_tiny,
                                       tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        fp = publish_model(store, served_model)
        assert len(fp) == 64
        assert publish_model(store, served_model) == fp  # content-addressed
        service = HashingService.from_snapshot(store, fp, clip, n_shards=2)
        assert service.model_key == fp
        service.load_database(cifar_tiny.database_images[:40])
        ids, dist = service.query(cifar_tiny.query_images[:2], top_k=3)
        direct = served_model.encode(cifar_tiny.query_images[:2])
        loaded_codes = service.encoder.encode(cifar_tiny.query_images[:2])
        np.testing.assert_array_equal(direct, loaded_codes)

    def test_load_model_path_fallback(self, served_model, clip, tmp_path):
        path = tmp_path / "model.npz"
        save_uhscm(served_model, path)
        loaded = load_model(path, clip)
        assert loaded.config == served_model.config

    def test_load_model_unknown_source_raises(self, clip, tmp_path):
        with pytest.raises(ConfigurationError):
            load_model(tmp_path / "nope.npz", clip)
        with pytest.raises(ConfigurationError):
            load_model("ab" * 32, clip, store=ArtifactStore(tmp_path / "c"))

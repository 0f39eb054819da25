"""Tests for the out-of-core corpus lifecycle.

Covers the raw memmapped artifact format and its threshold routing in the
store, memmap consumption in the trainer / ``UHSCM.encode`` / the serving
layer, a staged fit whose factored Q replays as memmapped factors, the
eviction (mtime, key) tie-break, per-stage disk stats, and the CLI flags
that thread the policy through.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity_matrix import (
    FactoredSimilarity,
    SparseTopKSimilarity,
)
from repro.core.trainer import UHSCMTrainer
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError, NotFittedError
from repro.pipeline import ArtifactStore, read_raw_archive, write_raw_archive
from repro.serving import HashingService


def save_memmap(path, array) -> np.memmap:
    """Write ``array`` to ``path`` and re-open it as a read-only memmap."""
    np.save(path, array)
    return np.load(str(path) + ".npy" if not str(path).endswith(".npy")
                   else path, mmap_mode="r")


@pytest.fixture()
def small_images(world):
    rng = np.random.default_rng(5)
    classes = ["cat"] * 10 + ["truck"] * 10 + ["flowers"] * 10
    latents = np.stack([world.image_latent([c], rng=rng) for c in classes])
    return world.render(latents, rng=rng)


# -- the raw archive format ---------------------------------------------------


class TestRawArchive:
    def test_round_trip_is_memmapped(self, tmp_path, rng):
        arrays = {"x": rng.normal(size=(8, 3)), "y": np.arange(5)}
        write_raw_archive(tmp_path / "k.raw", {"n": 8}, arrays)
        meta, back = read_raw_archive(tmp_path / "k.raw")
        assert meta == {"n": 8}
        for name in arrays:
            assert isinstance(back[name], np.memmap)
            np.testing.assert_array_equal(back[name], arrays[name])
            assert back[name].dtype == arrays[name].dtype

    def test_mmap_off_returns_heap_arrays(self, tmp_path, rng):
        write_raw_archive(tmp_path / "k.raw", {}, {"x": rng.normal(size=4)})
        _, back = read_raw_archive(tmp_path / "k.raw", mmap=False)
        assert not isinstance(back["x"], np.memmap)

    def test_array_names_with_slashes(self, tmp_path, rng):
        # State-dict names like param/w0 are illegal as filenames; the
        # manifest maps them to safe member files.
        arrays = {"param/w0": rng.normal(size=3), "param/b0": np.zeros(2)}
        write_raw_archive(tmp_path / "k.raw", {}, arrays)
        _, back = read_raw_archive(tmp_path / "k.raw")
        assert set(back) == set(arrays)
        np.testing.assert_array_equal(back["param/w0"], arrays["param/w0"])

    def test_non_raw_directory_rejected(self, tmp_path):
        (tmp_path / "k.raw").mkdir()
        with pytest.raises(ConfigurationError):
            read_raw_archive(tmp_path / "k.raw")

    def test_overwrite_replaces_atomically(self, tmp_path):
        write_raw_archive(tmp_path / "k.raw", {"v": 1}, {"x": np.zeros(3)})
        write_raw_archive(tmp_path / "k.raw", {"v": 2}, {"y": np.ones(2)})
        meta, back = read_raw_archive(tmp_path / "k.raw")
        assert meta == {"v": 2} and set(back) == {"y"}
        assert not list(tmp_path.glob("*.tmp"))


# -- store routing ------------------------------------------------------------


class TestStoreRawRouting:
    def test_threshold_routes_large_puts_to_raw(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=1000)
        small = store.put("a" * 64, {}, {"x": np.zeros(4)})
        large = store.put("b" * 64, {}, {"x": rng.normal(size=500)})
        assert not isinstance(small.arrays["x"], np.memmap)
        assert isinstance(large.arrays["x"], np.memmap)
        assert (tmp_path / "c/objects" / ("a" * 64 + ".npz")).exists()
        assert (tmp_path / "c/objects" / ("b" * 64 + ".raw")).is_dir()
        assert not (tmp_path / "c/objects" / ("b" * 64 + ".npz")).exists()

    def test_threshold_zero_routes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        art = store.put("a" * 64, {"m": 1}, {"x": np.arange(3)})
        assert isinstance(art.arrays["x"], np.memmap)

    def test_raw_hit_replays_as_memmap_across_instances(self, tmp_path, rng):
        data = rng.normal(size=(16, 4))
        ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0).put(
            "a" * 64, {"m": 1}, {"x": data}
        )
        # No threshold on the reader: the format, not the policy, decides.
        reader = ArtifactStore(tmp_path / "c")
        art = reader.get("a" * 64)
        assert art is not None and isinstance(art.arrays["x"], np.memmap)
        np.testing.assert_array_equal(art.arrays["x"], data)
        assert art.meta == {"m": 1}

    def test_format_switch_removes_twin(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=1000)
        key = "a" * 64
        store.put(key, {}, {"x": rng.normal(size=500)})  # raw
        store.put(key, {}, {"x": np.zeros(4)})  # rewrite below threshold
        assert (tmp_path / "c/objects" / (key + ".npz")).exists()
        assert not (tmp_path / "c/objects" / (key + ".raw")).exists()

    def test_corrupt_raw_treated_as_miss(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        key = "a" * 64
        store.put(key, {}, {"x": rng.normal(size=8)})
        store._memory.clear()
        (tmp_path / "c/objects" / (key + ".raw") / "meta.json").write_text(
            "not json"
        )
        assert store.get(key) is None
        assert not (tmp_path / "c/objects" / (key + ".raw")).exists()

    def test_threshold_requires_cache_dir(self):
        with pytest.raises(ConfigurationError):
            ArtifactStore(mmap_threshold_bytes=0)

    def test_negative_threshold_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArtifactStore(tmp_path / "c", mmap_threshold_bytes=-1)

    def test_memmapped_artifacts_not_pinned_in_memory(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        store.put("a" * 64, {}, {"x": rng.normal(size=64)})
        assert store.stats()["memory_entries"] == 0

    def test_clear_removes_raw_entries(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        store.put("a" * 64, {}, {"x": rng.normal(size=8)})
        assert store.clear() == 1
        assert store.stats()["disk_entries"] == 0


# -- eviction + per-stage disk stats ------------------------------------------


class TestEvictionAndStats:
    def test_same_mtime_evicts_in_key_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "c", max_entries=3)
        keys = ["b" * 64, "a" * 64, "c" * 64]
        for key in keys:
            store.put(key, {}, {"x": np.zeros(2)})
        # Force identical LRU clocks: only the key tie-break remains.
        now = os.stat(tmp_path / "c/objects" / (keys[0] + ".npz")).st_mtime
        for key in keys:
            os.utime(tmp_path / "c/objects" / (key + ".npz"), (now, now))
        store.put("d" * 64, {}, {"x": np.zeros(2)})
        # The lexicographically smallest stem among the tied entries goes.
        assert not store.contains("a" * 64)
        assert store.contains("b" * 64)
        assert store.contains("c" * 64)
        assert store.contains("d" * 64)

    def test_per_stage_disk_and_eviction_counters(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", max_entries=2,
                              mmap_threshold_bytes=4000)
        store.put("a" * 64, {}, {"x": rng.normal(size=8)}, stage="mine")
        store.put("b" * 64, {}, {"x": rng.normal(size=1000)}, stage="build_q")
        stats = store.stats()
        assert stats["stages"]["mine"]["disk_entries"] == 1
        assert stats["stages"]["build_q"]["disk_entries"] == 1
        # The raw dir reports its real on-disk payload.
        assert stats["stages"]["build_q"]["disk_bytes"] >= 8000
        store.put("c" * 64, {}, {"x": rng.normal(size=8)}, stage="mine")
        stats = store.stats()
        assert stats["evictions"] == 1
        by_stage = {name: per["evictions"]
                    for name, per in stats["stages"].items()}
        assert sum(by_stage.values()) == 1

    def test_stage_counters_survive_restart(self, tmp_path, rng):
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        store.put("a" * 64, {}, {"x": rng.normal(size=8)}, stage="mine")
        stats = ArtifactStore(tmp_path / "c").stats()
        assert stats["stages"]["mine"]["disk_entries"] == 1
        assert stats["stages"]["mine"]["evictions"] == 0

    def test_old_stats_files_backfill(self, tmp_path):
        store = ArtifactStore(tmp_path / "c")
        store.put("a" * 64, {}, {"x": np.zeros(2)}, stage="mine")
        # Strip the new fields the way a pre-PR-6 stats.json looks.
        stats_path = tmp_path / "c/stats.json"
        loaded = json.loads(stats_path.read_text())
        del loaded["key_stages"]
        for per in loaded["stages"].values():
            per.pop("evictions", None)
        stats_path.write_text(json.dumps(loaded))
        reloaded = ArtifactStore(tmp_path / "c").stats()
        assert reloaded["stages"]["mine"]["evictions"] == 0
        assert reloaded["stages"]["mine"]["disk_entries"] == 0  # unowned


# -- memmap consumers: trainer, encode, serving -------------------------------


class TestTrainerMemmap:
    def make_trainer(self, dim, dtype="float32"):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=2, dtype=dtype)
        )
        network = HashingNetwork(
            8, mode="feature", feature_extractor=lambda x: x,
            feature_dim=dim, rng=0, dtype=dtype,
        )
        return UHSCMTrainer(network, config)

    def test_memmap_inputs_bit_identical(self, tmp_path, rng):
        features = rng.normal(size=(48, 12))
        q = SparseTopKSimilarity.from_features(features, 8)
        heap_trainer = self.make_trainer(12)
        heap_history = heap_trainer.fit(features, q)
        mapped = save_memmap(tmp_path / "f.npy", features)
        map_trainer = self.make_trainer(12)
        map_history = map_trainer.fit(mapped, q)
        assert heap_history.total == map_history.total
        for name, param in heap_trainer.network.net.state_dict().items():
            np.testing.assert_array_equal(
                param, map_trainer.network.net.state_dict()[name]
            )


class TestEncodeEdgeCases:
    @pytest.fixture()
    def fitted(self, clip, small_images):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=1)
        )
        model = UHSCM(config, clip=clip)
        model.fit(small_images)
        return model

    @pytest.mark.parametrize("chunk_size", [None, 4])
    def test_empty_input_raises(self, fitted, small_images, chunk_size):
        empty = small_images[:0]
        with pytest.raises(NotFittedError,
                           match="empty image batch"):
            fitted.encode(empty, chunk_size=chunk_size)

    def test_memmap_input_identity(self, fitted, small_images, tmp_path,
                                   monkeypatch):
        # Force the auto-chunk path to actually chunk at this tiny n.
        monkeypatch.setattr(UHSCM, "MEMMAP_CHUNK", 7)
        mapped = save_memmap(tmp_path / "imgs.npy", small_images)
        np.testing.assert_array_equal(
            fitted.encode(small_images), fitted.encode(mapped)
        )

    def test_memmap_explicit_chunk_identity(self, fitted, small_images,
                                            tmp_path):
        mapped = save_memmap(tmp_path / "imgs.npy", small_images)
        np.testing.assert_array_equal(
            fitted.encode(small_images, chunk_size=1),
            fitted.encode(mapped, chunk_size=1),
        )


class TestServiceOutOfCore:
    def make_service(self, dim=8, bits=16, store=None):
        network = HashingNetwork(
            bits, mode="feature", feature_extractor=lambda x: x,
            feature_dim=dim, rng=0,
        )
        return HashingService(network, store=store, n_shards=2, max_batch=64)

    def test_chunked_load_matches_monolithic(self, rng):
        db = rng.normal(size=(30, 8))
        mono = self.make_service()
        ids_mono = mono.load_database(db)
        chunked = self.make_service()
        ids_chunked = chunked.load_database(db, chunk_size=7)
        np.testing.assert_array_equal(ids_mono, ids_chunked)
        queries = rng.normal(size=(4, 8))
        for a, b in zip(mono.query(queries, top_k=3),
                        chunked.query(queries, top_k=3)):
            np.testing.assert_array_equal(a, b)

    def test_invalid_chunk_size(self, rng):
        service = self.make_service()
        with pytest.raises(ConfigurationError):
            service.load_database(rng.normal(size=(4, 8)), chunk_size=0)

    def test_memmap_database_auto_chunks(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(HashingService, "DB_CHUNK", 8)
        db = rng.normal(size=(30, 8))
        mapped = save_memmap(tmp_path / "db.npy", db)
        heap_service = self.make_service()
        heap_service.load_database(db)
        map_service = self.make_service()
        map_service.load_database(mapped)
        queries = rng.normal(size=(4, 8))
        for a, b in zip(heap_service.query(queries, top_k=3),
                        map_service.query(queries, top_k=3)):
            np.testing.assert_array_equal(a, b)

    def test_warm_restart_mmaps_snapshot(self, tmp_path, rng):
        db = rng.normal(size=(40, 8))
        queries = rng.normal(size=(4, 8))
        store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        cold = self.make_service(store=store)
        cold.load_database(db, key={"name": "unit"})
        cold_ids, cold_dist = cold.query(queries, top_k=3)
        assert cold.stats()["database"]["encodes"] == 1

        warm = self.make_service(store=ArtifactStore(tmp_path / "c"))
        warm.load_database(db, key={"name": "unit"})
        warm_db = warm.stats()["database"]
        assert warm_db == {"encodes": 0, "warm_loads": 1,
                           "snapshot_mmapped": True}
        warm_ids, warm_dist = warm.query(queries, top_k=3)
        np.testing.assert_array_equal(cold_ids, warm_ids)
        np.testing.assert_array_equal(cold_dist, warm_dist)


# -- the staged out-of-core fit -----------------------------------------------


class TestStagedOutOfCoreFit:
    def test_fit_bit_identical_with_raw_q(self, clip, small_images,
                                          tmp_path):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=1),
        )
        data_key = {"name": "unit", "n": int(small_images.shape[0])}

        memory_model = UHSCM(config, clip=clip)
        memory_model.fit(small_images,
                         store=ArtifactStore(tmp_path / "mem"),
                         data_key=data_key)

        ooc_store = ArtifactStore(tmp_path / "ooc", mmap_threshold_bytes=0)
        ooc_model = UHSCM(config, clip=clip)
        ooc_model.fit(small_images, store=ooc_store, data_key=data_key)

        q = ooc_model.similarity_.matrix
        assert isinstance(q, FactoredSimilarity)
        assert all(isinstance(f, np.memmap) for f in q.factors)
        assert any(path.suffix == ".raw"
                   for path in (tmp_path / "ooc/objects").iterdir())
        # Same fingerprints: residency policy never enters stage addresses.
        assert (memory_model.similarity_.fingerprint
                == ooc_model.similarity_.fingerprint)
        np.testing.assert_array_equal(
            memory_model.encode(small_images),
            ooc_model.encode(small_images),
        )

    def test_out_of_core_replays_in_memory_artifacts(self, clip,
                                                     small_images, tmp_path):
        config = UHSCMConfig(
            n_bits=8, train=TrainConfig(batch_size=16, epochs=1),
        )
        data_key = {"name": "unit"}
        store = ArtifactStore(tmp_path / "c")
        UHSCM(config, clip=clip).fit(small_images, store=store,
                                     data_key=data_key)
        replay_store = ArtifactStore(tmp_path / "c", mmap_threshold_bytes=0)
        model = UHSCM(config, clip=clip)
        model.fit(small_images, store=replay_store, data_key=data_key)
        assert replay_store.stats()["stages"]["train"]["hits"] >= 1


# -- CLI ----------------------------------------------------------------------


class TestCliOutOfCore:
    def test_make_store_threshold_wiring(self, tmp_path):
        from repro.cli import DEFAULT_MMAP_THRESHOLD, _make_store, \
            build_parser

        base = ["train", "--cache-dir", str(tmp_path / "c")]
        parser = build_parser()
        assert _make_store(parser.parse_args(base)) \
            .mmap_threshold_bytes is None
        assert _make_store(parser.parse_args(base + ["--out-of-core"])) \
            .mmap_threshold_bytes == DEFAULT_MMAP_THRESHOLD
        assert _make_store(parser.parse_args(
            base + ["--out-of-core", "--mmap-threshold-bytes", "123"]
        )).mmap_threshold_bytes == 123

    def test_cache_stats_reports_stage_disk(self, tmp_path, capsys, rng):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        store = ArtifactStore(cache_dir, mmap_threshold_bytes=0)
        store.put("a" * 64, {}, {"x": rng.normal(size=64)}, stage="build_q")
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "stage build_q" in out
        assert "0 evictions" in out and "1 on disk" in out

    def test_train_out_of_core_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        code = main([
            "train", "--dataset", "cifar10", "--scale", "0.008",
            "--bits", "16", "--seed", "1", "--cache-dir", str(cache_dir),
            "--out-of-core", "--mmap-threshold-bytes", "0",
        ])
        assert code == 0
        assert "cache:" in capsys.readouterr().out
        assert any(path.suffix == ".raw"
                   for path in (cache_dir / "objects").iterdir())

"""Tests for the staged pipeline: fingerprints, the artifact store, staged
similarity/fit execution, and resumable experiment runs."""

import os

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.similarity import SemanticSimilarityGenerator
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentContext
from repro.experiments.table1 import run_table1
from repro.pipeline import (
    ArtifactStore,
    Stage,
    array_fingerprint,
    canonical,
    dataset_key,
    fingerprint,
    read_archive,
    run_stage,
    write_archive,
)

CONCEPTS = ("cat", "dog", "bird", "horse", "truck", "airplane", "ship")


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = fingerprint({"x": 1, "y": [1, 2], "z": "s"})
        b = fingerprint({"z": "s", "y": (1, 2), "x": 1})
        assert a == b
        assert len(a) == 64

    def test_dataclass_payload(self):
        config = UHSCMConfig(n_bits=32)
        assert fingerprint(config) == fingerprint(config)
        assert canonical(config)["train"]["epochs"] == config.train.epochs

    @pytest.mark.parametrize(
        "change",
        [
            {"n_bits": 16},
            {"alpha": 0.25},
            {"lam": 0.7},
            {"gamma": 0.3},
            {"beta": 0.01},
            {"tau_scale": 2.0},
            {"denoise": False},
            {"prompt_template": "the {concept}"},
            {"seed": 1},
            {"train": TrainConfig(epochs=3)},
            {"train": TrainConfig(dtype="float32")},
        ],
    )
    def test_any_config_field_change_invalidates(self, change):
        from dataclasses import replace

        base = UHSCMConfig()
        assert fingerprint(base) != fingerprint(replace(base, **change))

    def test_stage_fingerprint_chains_upstream(self):
        up_a = Stage("mine", params={"tau_scale": 1.0})
        up_b = Stage("mine", params={"tau_scale": 2.0})
        down_a = Stage("build_q", inputs=(up_a.fingerprint,))
        down_b = Stage("build_q", inputs=(up_b.fingerprint,))
        assert down_a.fingerprint != down_b.fingerprint
        assert Stage("build_q", inputs=(up_a.fingerprint,)).fingerprint \
            == down_a.fingerprint

    def test_stage_name_and_version_matter(self):
        assert Stage("mine").fingerprint != Stage("denoise").fingerprint
        assert Stage("mine").fingerprint != Stage("mine", version=2).fingerprint

    def test_arrays_rejected_from_params(self):
        with pytest.raises(ConfigurationError):
            fingerprint({"q": np.zeros(3)})

    def test_array_fingerprint_tracks_content(self):
        x = np.arange(6, dtype=np.float64)
        assert array_fingerprint(x) == array_fingerprint(x.copy())
        assert array_fingerprint(x) != array_fingerprint(x + 1)
        assert array_fingerprint(x) != array_fingerprint(
            x.astype(np.float32)
        )
        assert array_fingerprint(x) != array_fingerprint(x.reshape(2, 3))


class TestArchive:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "artifact.npz"
        meta = {"kind": "test", "values": [1, 2.5, "x"], "flag": True}
        arrays = {
            "matrix": np.random.default_rng(0).normal(size=(5, 5)),
            "param/0:weight": np.arange(4, dtype=np.float32),
        }
        write_archive(path, meta, arrays)
        got_meta, got_arrays = read_archive(path)
        assert got_meta == meta
        assert set(got_arrays) == set(arrays)
        for key in arrays:
            np.testing.assert_array_equal(got_arrays[key], arrays[key])
            assert got_arrays[key].dtype == arrays[key].dtype

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_archive(tmp_path / "x.npz", {}, {"__meta__": np.zeros(1)})

    def test_missing_archive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_archive(tmp_path / "missing.npz")


class TestArtifactStore:
    def test_memory_only_roundtrip(self):
        store = ArtifactStore()
        assert store.get("k" * 64) is None
        store.put("k" * 64, {"a": 1}, {"x": np.ones(3)})
        art = store.get("k" * 64)
        assert art.meta == {"a": 1}
        np.testing.assert_array_equal(art.arrays["x"], np.ones(3))
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["puts"] == 1 and stats["disk_entries"] == 0

    def test_disk_persistence_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path / "cache")
        first.put("a" * 64, {"n": 1}, {"x": np.arange(3)})
        second = ArtifactStore(tmp_path / "cache")
        art = second.get("a" * 64)
        assert art is not None and art.meta == {"n": 1}
        np.testing.assert_array_equal(art.arrays["x"], np.arange(3))

    def test_stats_persist_across_instances(self, tmp_path):
        first = ArtifactStore(tmp_path / "cache")
        first.put("a" * 64, {}, {})
        first.get("a" * 64)
        second = ArtifactStore(tmp_path / "cache")
        stats = second.stats()
        assert stats["puts"] == 1 and stats["hits"] == 1

    def test_memory_layer_bounded(self):
        store = ArtifactStore(memory_entries=2)
        for i in range(4):
            store.put(f"{i:064d}", {"i": i}, {})
        assert store.stats()["memory_entries"] == 2
        assert store.get(f"{0:064d}") is None  # evicted from memory, no disk

    def test_disk_eviction_by_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", max_entries=2)
        for i in range(4):
            key = f"{i:064d}"
            store.put(key, {"i": i}, {"x": np.zeros(8)})
            # Space the mtimes out so LRU order is unambiguous on coarse
            # filesystem timestamp resolutions.
            os.utime(store._object_path(key), (i, i))
        store._evict()
        stats = store.stats()
        assert stats["disk_entries"] == 2
        assert stats["evictions"] >= 2
        assert not store._object_path(f"{0:064d}").exists()
        assert store._object_path(f"{3:064d}").exists()

    def test_disk_eviction_by_bytes(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        probe.put("a" * 64, {}, {"x": np.zeros(64)})
        artifact_bytes = probe._object_path("a" * 64).stat().st_size
        # Room for one artifact but not two.
        store = ArtifactStore(tmp_path / "cache",
                              max_bytes=int(1.5 * artifact_bytes))
        store.put("a" * 64, {}, {"x": np.zeros(64)})
        os.utime(store._object_path("a" * 64), (1, 1))
        store.put("b" * 64, {}, {"x": np.zeros(64)})
        assert store.stats()["disk_entries"] == 1
        assert store._object_path("b" * 64).exists()
        assert not store._object_path("a" * 64).exists()

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("a" * 64, {}, {})
        store.put("b" * 64, {}, {})
        assert store.clear() == 2
        assert store.get("a" * 64) is None
        assert store.stats()["disk_entries"] == 0

    @pytest.mark.parametrize("kind", ["file", "raw-dir"])
    def test_orphaned_tmp_files_swept_at_init(self, tmp_path, kind):
        store = ArtifactStore(tmp_path / "cache")
        if kind == "file":
            orphan = store._objects_dir / "deadbeef.npzab12.tmp"
            orphan.write_bytes(b"partial write from a killed process")
        else:
            # The assembly directory a killed write_raw_archive leaves.
            orphan = store._objects_dir / f"{'a' * 64}.raw.k1ll3d.tmp"
            orphan.mkdir()
            member = orphan / "a0.npy"
            np.save(member, np.arange(64.0))
            member.write_bytes(member.read_bytes()[:100])
        reopened = ArtifactStore(tmp_path / "cache")
        assert not orphan.exists()
        assert reopened.stats()["disk_entries"] == 0

    def test_oversized_artifact_not_pinned_in_memory(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", memory_bytes=100)
        store.put("a" * 64, {}, {"x": np.zeros(64)})  # 512 bytes > bound
        assert store.stats()["memory_entries"] == 0
        # Still served from disk.
        art = store.get("a" * 64)
        assert art is not None
        np.testing.assert_array_equal(art.arrays["x"], np.zeros(64))

    def test_corrupt_archive_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.put("a" * 64, {"n": 1}, {})
        store._memory.clear()
        store._object_path("a" * 64).write_bytes(b"not an npz archive")
        assert store.get("a" * 64) is None
        assert not store._object_path("a" * 64).exists()

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArtifactStore(tmp_path, max_entries=0)
        with pytest.raises(ConfigurationError):
            ArtifactStore(tmp_path, max_bytes=0)
        with pytest.raises(ConfigurationError):
            ArtifactStore(memory_entries=-1)

    def test_run_stage_without_store_always_builds(self):
        calls = []

        def build():
            calls.append(1)
            return {"n": len(calls)}, {}

        stage = Stage("mine", params={"p": 1})
        assert run_stage(None, stage, build).meta == {"n": 1}
        assert run_stage(None, stage, build).meta == {"n": 2}

    def test_run_stage_replays_from_store(self):
        store = ArtifactStore()
        calls = []

        def build():
            calls.append(1)
            return {"n": len(calls)}, {"x": np.ones(2)}

        stage = Stage("mine", params={"p": 1})
        first = run_stage(store, stage, build)
        second = run_stage(store, stage, build)
        assert len(calls) == 1
        assert second.meta == first.meta == {"n": 1}


class TestStagedSimilarity:
    def _generator(self, clip, **kwargs):
        defaults = dict(templates=(None,), tau_scale=1.0, denoise=True)
        defaults.update(kwargs)
        return SemanticSimilarityGenerator(clip, CONCEPTS, **defaults)

    def test_staged_matches_direct(self, clip, cifar_tiny):
        images = cifar_tiny.train_images
        gen = self._generator(clip)
        direct = gen.generate(images)
        store = ArtifactStore()
        staged = gen.generate(images, store=store,
                              data_key=dataset_key("t", 0.01, 7))
        np.testing.assert_array_equal(staged.matrix.to_dense(),
                                      direct.matrix.to_dense())
        assert staged.concepts == direct.concepts
        assert staged.mined and staged.fingerprint is not None
        np.testing.assert_array_equal(
            staged.distributions, direct.distributions
        )

    def test_staged_matches_direct_without_denoise(self, clip, cifar_tiny):
        images = cifar_tiny.train_images
        gen = self._generator(clip, denoise=False)
        direct = gen.generate(images)
        staged = gen.generate(images, store=ArtifactStore(),
                              data_key=dataset_key("t", 0.01, 7))
        np.testing.assert_array_equal(staged.matrix.to_dense(),
                                      direct.matrix.to_dense())

    def test_second_generate_hits_every_stage(self, clip, cifar_tiny):
        images = cifar_tiny.train_images
        gen = self._generator(clip)
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        gen.generate(images, store=store, data_key=key)
        puts_before = store.stats()["puts"]
        gen.generate(images, store=store, data_key=key)
        stats = store.stats()
        assert stats["puts"] == puts_before  # nothing recomputed
        assert stats["hits"] >= 3  # mine + denoise + build_q

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_scale=2.0),
            dict(denoise=False),
            dict(templates=("the {concept}",)),
        ],
    )
    def test_similarity_setting_change_invalidates(self, clip, cifar_tiny,
                                                   kwargs):
        images = cifar_tiny.train_images
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        self._generator(clip).generate(images, store=store, data_key=key)
        misses_before = store.stats()["misses"]
        self._generator(clip, **kwargs).generate(images, store=store,
                                                 data_key=key)
        assert store.stats()["misses"] > misses_before

    def test_data_key_change_invalidates(self, clip, cifar_tiny):
        images = cifar_tiny.train_images
        store = ArtifactStore()
        gen = self._generator(clip)
        gen.generate(images, store=store, data_key=dataset_key("t", 0.01, 7))
        misses_before = store.stats()["misses"]
        gen.generate(images, store=store, data_key=dataset_key("t", 0.01, 8))
        assert store.stats()["misses"] > misses_before

    def test_averaged_templates_staged(self, clip, cifar_tiny):
        images = cifar_tiny.train_images
        gen = self._generator(
            clip,
            templates=("a photo of the {concept}", "the {concept}"),
        )
        direct = gen.generate(images)
        staged = gen.generate(images, store=ArtifactStore(),
                              data_key=dataset_key("t", 0.01, 7))
        np.testing.assert_array_equal(staged.matrix.to_dense(),
                                      direct.matrix.to_dense())
        assert staged.fingerprint is not None


class TestStagedUHSCMFit:
    CONFIG = UHSCMConfig(n_bits=16, train=TrainConfig(epochs=3), seed=0)

    def test_replayed_fit_is_identical(self, clip, cifar_tiny):
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        first = UHSCM(self.CONFIG, clip=clip)
        first.fit(cifar_tiny.train_images, store=store, data_key=key)
        second = UHSCM(self.CONFIG, clip=clip)
        second.fit(cifar_tiny.train_images, store=store, data_key=key)
        assert store.stats()["stages"]["train"]["hits"] == 1
        np.testing.assert_array_equal(
            first.encode(cifar_tiny.query_images),
            second.encode(cifar_tiny.query_images),
        )
        assert second.history_.total == first.history_.total
        assert second.history_.batches == first.history_.batches
        assert second.mined_concepts == first.mined_concepts

    def test_q_shared_across_bit_widths(self, clip, cifar_tiny):
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        UHSCM(self.CONFIG, clip=clip).fit(
            cifar_tiny.train_images, store=store, data_key=key
        )
        UHSCM(self.CONFIG.with_bits(32), clip=clip).fit(
            cifar_tiny.train_images, store=store, data_key=key
        )
        stages = store.stats()["stages"]
        assert stages["mine"]["misses"] == 1
        assert stages["mine"]["hits"] == 1
        assert stages["train"]["misses"] == 2  # n_bits invalidates training

    def test_injected_similarity_is_not_mined(self, clip, cifar_tiny):
        n = cifar_tiny.train_images.shape[0]
        q = np.eye(n)
        model = UHSCM(self.CONFIG, clip=clip)
        model.fit(cifar_tiny.train_images, similarity=q)
        assert model.concepts_mined is False
        assert model.mined_concepts == ()

    def test_injected_similarity_replays_by_content(self, clip, cifar_tiny):
        n = cifar_tiny.train_images.shape[0]
        q = np.eye(n)
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        a = UHSCM(self.CONFIG, clip=clip)
        a.fit(cifar_tiny.train_images, similarity=q, store=store, data_key=key)
        b = UHSCM(self.CONFIG, clip=clip)
        b.fit(cifar_tiny.train_images, similarity=q, store=store, data_key=key)
        assert store.stats()["stages"]["train"]["hits"] == 1
        np.testing.assert_array_equal(
            a.encode(cifar_tiny.query_images), b.encode(cifar_tiny.query_images)
        )
        # A different injected Q must not replay the same training.
        c = UHSCM(self.CONFIG, clip=clip)
        c.fit(cifar_tiny.train_images, similarity=np.ones((n, n)),
              store=store, data_key=key)
        assert store.stats()["stages"]["train"]["misses"] == 2

    def test_injected_similarity_result_keeps_provenance(self, clip,
                                                         cifar_tiny):
        """Passing a staged SimilarityResult chains the train stage on the
        Q fingerprint instead of re-hashing the matrix (figure 4's path)."""
        store = ArtifactStore()
        key = dataset_key("t", 0.01, 7)
        gen = SemanticSimilarityGenerator(clip, CONCEPTS)
        sim = gen.generate(cifar_tiny.train_images, store=store, data_key=key)
        assert sim.fingerprint is not None
        a = UHSCM(self.CONFIG, clip=clip)
        a.fit(cifar_tiny.train_images, similarity=sim, store=store,
              data_key=key)
        assert a.concepts_mined is True
        assert a.mined_concepts == sim.concepts
        b = UHSCM(self.CONFIG, clip=clip)
        b.fit(cifar_tiny.train_images, similarity=sim, store=store,
              data_key=key)
        assert store.stats()["stages"]["train"]["hits"] == 1
        np.testing.assert_array_equal(
            a.encode(cifar_tiny.query_images),
            b.encode(cifar_tiny.query_images),
        )


class TestResumableContext:
    def test_fit_replays_across_contexts(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        ctx = ExperimentContext("cifar10", scale=0.008, epochs=2, store=store)
        first = ctx.fit("LSH", 16)
        # A fresh context + fresh store instance simulates a new process
        # resuming after an interrupt.
        ctx2 = ExperimentContext("cifar10", scale=0.008, epochs=2,
                                 store=ArtifactStore(tmp_path / "cache"))
        second = ctx2.fit("LSH", 16)
        np.testing.assert_array_equal(first.query_codes, second.query_codes)
        np.testing.assert_array_equal(first.database_codes,
                                      second.database_codes)
        assert second.fit_seconds == first.fit_seconds
        assert ctx2.store.stats()["stages"]["encode"]["hits"] >= 1

    def test_use_cache_false_bypasses_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        ctx = ExperimentContext("cifar10", scale=0.008, epochs=2, store=store)
        ctx.fit("LSH", 16, use_cache=False)
        stats = store.stats()
        assert stats["puts"] == 0 and stats["hits"] == 0 \
            and stats["misses"] == 0

    def test_variant_fit_replays(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        ctx = ExperimentContext("cifar10", scale=0.008, epochs=2, store=store)
        first = ctx.fit_variant("wo_mcl", 16)
        ctx2 = ExperimentContext("cifar10", scale=0.008, epochs=2,
                                 store=ArtifactStore(tmp_path / "cache"))
        second = ctx2.fit_variant("wo_mcl", 16)
        np.testing.assert_array_equal(first.query_codes, second.query_codes)

    def test_table1_resumes_without_refitting(self, tmp_path):
        kwargs = dict(scale=0.008, bit_lengths=(16,), datasets=("cifar10",),
                      methods=("LSH", "UHSCM"), epochs=2)
        # Simulate an interrupted run: only the first cell finished.
        store = ArtifactStore(tmp_path / "cache")
        partial = run_table1(methods=("LSH",), store=store,
                             **{k: v for k, v in kwargs.items()
                                if k != "methods"})
        assert partial.value("LSH", "cifar10", 16) >= 0
        # Resume with a fresh store instance over the same directory.
        resumed_store = ArtifactStore(tmp_path / "cache")
        full = run_table1(store=resumed_store, **kwargs)
        stats = resumed_store.stats()
        assert stats["stages"]["encode"]["hits"] >= 1  # LSH cell replayed
        assert full.value("LSH", "cifar10", 16) \
            == partial.value("LSH", "cifar10", 16)
        # And the resumed numbers match a from-scratch, storeless run.
        fresh = run_table1(**kwargs)
        for method in kwargs["methods"]:
            assert full.value(method, "cifar10", 16) \
                == fresh.value(method, "cifar10", 16)


class TestCliCache:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        store = ArtifactStore(cache_dir)
        store.put("a" * 64, {"n": 1}, {"x": np.zeros(4)})
        store.get("a" * 64)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "hits      : 1" in out and "1 artifacts" in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 1 artifacts" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 artifacts" in capsys.readouterr().out

    def test_stats_on_missing_dir(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        assert "does not exist" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0

    def test_resume_flag_implies_default_cache_dir(self, tmp_path,
                                                   monkeypatch):
        from repro.cli import _make_store, build_parser

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        args = build_parser().parse_args(["table1", "--resume"])
        store = _make_store(args)
        assert store is not None
        assert store.cache_dir == tmp_path / "envcache"
        args = build_parser().parse_args(["table1"])
        assert _make_store(args) is None

    def test_train_with_cache_dir_populates_store(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        code = main([
            "train", "--dataset", "cifar10", "--scale", "0.008",
            "--bits", "16", "--seed", "1", "--cache-dir", str(cache_dir),
        ])
        assert code == 0
        assert "cache:" in capsys.readouterr().out
        stats = ArtifactStore(cache_dir).stats()
        assert stats["puts"] >= 4  # mine, denoise, build_q, train

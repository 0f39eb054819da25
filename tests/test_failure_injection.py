"""Failure-injection tests: corrupted inputs must fail loudly, not silently.

A production library's error paths matter as much as its happy paths; these
tests feed each subsystem malformed data and assert it refuses clearly.
"""

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.uhscm import UHSCM
from repro.errors import (
    ConfigurationError,
    ReproError,
    ShapeError,
)
from repro.retrieval import evaluate_codes, pack_codes
from repro.retrieval.hamming import PackedCodes


class TestCorruptedCodes:
    def test_nan_codes_rejected(self):
        codes = np.full((3, 8), np.nan)
        with pytest.raises(ShapeError):
            pack_codes(codes)

    def test_fractional_codes_rejected(self):
        with pytest.raises(ShapeError):
            pack_codes(np.full((2, 4), 0.999))

    def test_packed_codes_byte_width_checked(self):
        with pytest.raises(ShapeError):
            PackedCodes(bits=np.zeros((2, 3), dtype=np.uint8), n_bits=64)

    def test_packed_codes_dtype_checked(self):
        with pytest.raises(ShapeError):
            PackedCodes(bits=np.zeros((2, 8), dtype=np.int64), n_bits=64)


class TestCorruptedLabels:
    def test_evaluate_rejects_label_dim_mismatch(self):
        q = np.where(np.random.default_rng(0).random((3, 8)) < 0.5, -1.0, 1.0)
        db = np.where(np.random.default_rng(1).random((9, 8)) < 0.5, -1.0, 1.0)
        with pytest.raises(ShapeError):
            evaluate_codes(q, db, np.ones((3, 4), int), np.ones((9, 5), int))


class TestCorruptedImages:
    def test_uhscm_rejects_wrong_image_geometry(self, clip):
        model = UHSCM(UHSCMConfig(n_bits=8, train=TrainConfig(epochs=1)),
                      clip=clip)
        bad_images = np.zeros((10, 3, 7, 7))  # world expects 16x16
        with pytest.raises(ReproError):
            model.fit(bad_images)

    def test_world_rejects_flat_input(self, world):
        with pytest.raises(ConfigurationError):
            world.encode_pixels(np.zeros((5, 768)))


class TestDegenerateTrainingData:
    def test_single_image_training_is_rejected_or_harmless(self, clip,
                                                           cifar_tiny):
        """Pairwise losses need >= 2 images per batch; a 1-image train set
        must not produce NaNs."""
        model = UHSCM(UHSCMConfig(n_bits=8, train=TrainConfig(epochs=1,
                                                              batch_size=2)),
                      clip=clip)
        # Two identical images: Q is all-ones; must still train finitely.
        images = np.repeat(cifar_tiny.train_images[:1], 2, axis=0)
        model.fit(images)
        codes = model.encode(images)
        assert np.isfinite(codes).all()

    def test_constant_features_do_not_crash_shallow_methods(self, cifar_tiny):
        from repro.baselines import ITQ, LSH

        def constant_features(images):
            return np.ones((images.shape[0], 16))

        for cls in (LSH, ITQ):
            m = cls(8, constant_features, seed=0)
            m.fit(cifar_tiny.train_images)
            codes = m.encode(cifar_tiny.query_images[:4])
            assert codes.shape == (4, 8)
            assert np.isfinite(codes).all()


class TestConfigBoundaries:
    def test_lam_one_keeps_only_identical_pairs(self, clip, cifar_tiny):
        """λ=1.0 makes Ψ nearly empty — training must still proceed via L_s."""
        cfg = UHSCMConfig(n_bits=8, lam=1.0, train=TrainConfig(epochs=1))
        model = UHSCM(cfg, clip=clip)
        model.fit(cifar_tiny.train_images[:40])
        assert np.isfinite(model.history_.total[-1])

    def test_zero_alpha_and_beta(self, clip, cifar_tiny):
        cfg = UHSCMConfig(n_bits=8, alpha=0.0, beta=0.0,
                          train=TrainConfig(epochs=1))
        model = UHSCM(cfg, clip=clip)
        model.fit(cifar_tiny.train_images[:40])
        assert np.isfinite(model.history_.total[-1])


class TestCorruptedArtifacts:
    """On-disk artifact damage must quarantine + rebuild, never crash."""

    KEY = "f" * 64

    def _store(self, tmp_path, **kwargs):
        from repro.pipeline import ArtifactStore

        return ArtifactStore(tmp_path / "cache", **kwargs)

    def test_corrupt_raw_member_is_quarantined(self, tmp_path, monkeypatch):
        from repro.pipeline import ArtifactStore

        monkeypatch.setattr(ArtifactStore, "MMAP_BYTES", 1)
        store = self._store(tmp_path)
        arrays = {"x": np.arange(64, dtype=np.float64)}
        store.put(self.KEY, {"n": 64}, arrays, stage="unit")
        raw_dir = store.cache_dir / "objects" / f"{self.KEY}.raw"
        member = raw_dir / "a0.npy"  # the sole array's member file
        blob = bytearray(member.read_bytes())
        blob[-8] ^= 0xFF  # surgical flip: structure intact, content wrong
        member.write_bytes(bytes(blob))

        fresh = self._store(tmp_path)
        assert fresh.get(self.KEY, stage="unit") is None
        assert not raw_dir.exists()
        assert (fresh.quarantine_dir / f"{self.KEY}.raw").is_dir()
        stats = fresh.stats()
        assert stats["corruptions"] == 1 and stats["quarantined"] == 1
        # Rebuild lands clean at the same address.
        fresh.put(self.KEY, {"n": 64}, arrays, stage="unit")
        replay = self._store(tmp_path)
        back = replay.get(self.KEY, stage="unit")
        assert back is not None
        np.testing.assert_array_equal(back.arrays["x"], arrays["x"])

    def test_truncated_npz_is_quarantined(self, tmp_path):
        store = self._store(tmp_path)
        store.put(self.KEY, {"n": 3},
                  {"x": np.arange(12, dtype=np.float64)}, stage="unit")
        path = store.cache_dir / "objects" / f"{self.KEY}.npz"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write / bad disk

        fresh = self._store(tmp_path)
        assert fresh.get(self.KEY, stage="unit") is None
        assert (fresh.quarantine_dir / f"{self.KEY}.npz").exists()
        assert fresh.stats()["stages"]["unit"]["quarantined"] == 1


class TestServingFaults:
    """Mid-request failures fail only their own request and never hang."""

    def _service(self, n=12, **kwargs):
        from repro.core.hashing_network import HashingNetwork
        from repro.serving import HashingService

        network = HashingNetwork(
            16, mode="feature", feature_extractor=lambda x: x,
            feature_dim=8, rng=0,
        )
        kwargs.setdefault("n_shards", 3)
        service = HashingService(network, **kwargs)
        service.load_database(np.random.default_rng(1).normal(size=(n, 8)))
        return service

    def test_shard_raising_mid_fanout_fails_that_query(self):
        service = self._service()
        # A shard whose search raises from inside the fan-out: the query
        # fails with that exception, and nothing of it outlives the query.
        def explode(codes, top_k):
            raise RuntimeError("shard backend blew up mid-fanout")

        service.index.shards[1].search = explode
        queries = np.random.default_rng(2).normal(size=(2, 8))
        with pytest.raises(RuntimeError, match="mid-fanout"):
            service.query(queries, top_k=4)
        del service.index.shards[1].search
        ids, dist = service.query(queries, top_k=4)
        want_ids, want_dist = self._service().query(queries, top_k=4)
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(dist, want_dist)
        assert service.health()["status"] == "ok"

    def test_batcher_shape_poisoning_under_concurrent_tickets(self):
        from repro.serving import EncodeBatcher

        class ShapeShifter:
            """Returns garbage-shaped output when any row is poisoned."""

            n_bits = 16
            calls = 0

            def encode(self, matrix):
                self.calls += 1
                if np.any(matrix[:, 0] > 9):  # the poisoned rows
                    raise ShapeError("poisoned input row")
                return np.ones((matrix.shape[0], 16))

        batcher = EncodeBatcher(ShapeShifter(), max_batch=64)
        rows = np.zeros((6, 8))
        rows[2, 0] = rows[4, 0] = 10.0  # two poison rows among six tickets
        tickets = [batcher.submit(row) for row in rows]
        batcher.flush()
        assert all(t.ready for t in tickets)  # nobody hangs
        for ti, ticket in enumerate(tickets):
            if ti in (2, 4):
                with pytest.raises(ShapeError):
                    ticket.result()
            else:
                assert ticket.result().shape == (16,)
        assert batcher.stats()["poisoned"] == 2
        assert batcher.stats()["isolation_flushes"] == 1

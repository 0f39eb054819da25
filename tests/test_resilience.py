"""Tests for the resilience layer: deterministic fault injection, retry
policies, store integrity/quarantine, a failing shard that fails only its
own query, and the service's overload/deadline/health surface."""

import numpy as np
import pytest

from repro.core.hashing_network import HashingNetwork
from repro.errors import (
    ArtifactCorruptionError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    TransientError,
)
from repro.pipeline import ArtifactStore, content_digest
from repro.retrieval import HammingIndex
from repro.serving import EncodeBatcher, HashingService, ShardedIndex
from repro.utils import FaultInjector, RetryPolicy
from repro.utils.faults import NULL_INJECTOR


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def identity_network(bits=16, dim=8, rng=0):
    return HashingNetwork(bits, mode="feature", feature_extractor=lambda x: x,
                          feature_dim=dim, rng=rng)


class TickingClock:
    """Advances by ``step`` on every read — time passes inside a query."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def _raise_boom(*args, **kwargs):
    """Stand-in shard method that fails inside the fan-out itself."""
    raise RuntimeError("shard blew up mid-search")


# -- fault injector -----------------------------------------------------------


class TestFaultInjector:
    def test_disarmed_is_a_noop(self):
        inj = FaultInjector()
        inj.rule("p")  # bare rule: would fire every call if armed
        inj.check("p")
        assert inj.stats()["calls"] == {}

    def test_null_injector_is_shared_and_disarmed(self):
        assert NULL_INJECTOR.armed is False
        NULL_INJECTOR.check("anything", shard=3)

    def test_nth_fires_exactly_once(self):
        inj = FaultInjector().arm()
        inj.rule("p", nth=2)
        inj.check("p")
        with pytest.raises(TransientError):
            inj.check("p")
        for _ in range(5):
            inj.check("p")
        assert inj.injected["p"] == 1

    def test_bare_rule_fires_until_times_budget(self):
        inj = FaultInjector().arm()
        inj.rule("p", times=2)
        for _ in range(2):
            with pytest.raises(TransientError):
                inj.check("p")
        inj.check("p")

    def test_rate_schedule_is_deterministic(self):
        def schedule():
            inj = FaultInjector(seed=5).arm()
            inj.rule("p", rate=0.5)
            fired = []
            for _ in range(32):
                try:
                    inj.check("p")
                    fired.append(False)
                except TransientError:
                    fired.append(True)
            return fired

        first, second = schedule(), schedule()
        assert first == second
        assert any(first) and not all(first)

    def test_rate_schedule_ignores_unrelated_rules(self):
        def schedule(unrelated: bool):
            inj = FaultInjector(seed=5).arm()
            if unrelated:
                inj.rule("other", rate=0.3)
            inj.rule("p", rate=0.5)
            fired = []
            for _ in range(32):
                try:
                    inj.check("p")
                    fired.append(False)
                except TransientError:
                    fired.append(True)
            return fired

        assert schedule(unrelated=False) == schedule(unrelated=True)

    def test_match_filters_on_context(self):
        inj = FaultInjector().arm()
        inj.rule("store.read", match={"key": "b"})
        inj.check("store.read", key="a")
        with pytest.raises(TransientError):
            inj.check("store.read", key="b")

    def test_custom_exception_type(self):
        inj = FaultInjector().arm()
        inj.rule("p", exc=ArtifactCorruptionError)
        with pytest.raises(ArtifactCorruptionError):
            inj.check("p")

    def test_disarm_preserves_counters(self):
        inj = FaultInjector().arm()
        inj.rule("p", nth=1)
        with pytest.raises(TransientError):
            inj.check("p")
        inj.disarm()
        inj.check("p")  # no-op, not counted
        assert inj.stats()["injected"] == {"p": 1}
        assert inj.stats()["calls"] == {"p": 1}

    def test_rule_validation(self):
        inj = FaultInjector()
        with pytest.raises(ConfigurationError):
            inj.rule("")
        with pytest.raises(ConfigurationError):
            inj.rule("p", nth=1, rate=0.5)
        with pytest.raises(ConfigurationError):
            inj.rule("p", nth=0)
        with pytest.raises(ConfigurationError):
            inj.rule("p", rate=1.5)
        with pytest.raises(ConfigurationError):
            inj.rule("p", times=-1)


# -- retry policy -------------------------------------------------------------


class TestRetryPolicy:
    def test_retries_transient_then_succeeds(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append, seed=1)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("flaky")
            return "ok"

        assert policy.call(flaky, "unit") == "ok"
        assert calls["n"] == 3 and len(sleeps) == 2
        assert policy.stats()["retries"] == 2
        assert policy.stats()["exhausted"] == 0

    def test_exhaustion_reraises_the_original(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
        boom = TransientError("always")
        with pytest.raises(TransientError) as err:
            policy.call(lambda: (_ for _ in ()).throw(boom), "unit")
        assert err.value is boom
        assert policy.stats()["retries"] == 1
        assert policy.stats()["exhausted"] == 1

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(sleep=lambda s: None)
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(fatal, "unit")
        assert calls["n"] == 1

    def test_backoff_is_exponential_and_deterministic(self):
        a = RetryPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.1, seed=9)
        b = RetryPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.1, seed=9)
        da = [a.delay_s(attempt) for attempt in range(2, 6)]
        db = [b.delay_s(attempt) for attempt in range(2, 6)]
        assert da == db
        for i, delay in enumerate(da):  # delay_s is 2-based
            base = 0.01 * 2.0**i
            assert base * 0.9 <= delay <= base * 1.1
        assert all(x < y for x, y in zip(da, da[1:]))

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=10.0,
                             max_delay_s=2.0, jitter=0.0)
        assert policy.delay_s(5) == 2.0


# -- store integrity ----------------------------------------------------------


class TestStoreIntegrity:
    def _put_one(self, store, key="k" * 64):
        arrays = {"x": np.arange(12, dtype=np.float64).reshape(3, 4)}
        store.put(key, {"n": 3}, arrays, stage="unit")
        return key, arrays

    def test_content_digest_is_order_insensitive(self):
        a = np.arange(4.0)
        b = np.ones(2)
        assert (content_digest({"m": 1}, {"a": a, "b": b})
                == content_digest({"m": 1}, {"b": b, "a": a}))
        assert (content_digest({"m": 1}, {"a": a})
                != content_digest({"m": 2}, {"a": a}))

    def test_corrupt_npz_is_quarantined_not_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key, _ = self._put_one(store)
        path = store.cache_dir / "objects" / f"{key}.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        fresh = ArtifactStore(tmp_path / "cache")
        assert fresh.get(key, stage="unit") is None
        assert not path.exists()
        assert (fresh.quarantine_dir / f"{key}.npz").exists()
        stats = fresh.stats()
        assert stats["corruptions"] == 1 and stats["quarantined"] == 1
        assert stats["quarantine_entries"] == 1
        assert stats["stages"]["unit"]["corruptions"] == 1

    def test_digest_mismatch_without_structural_damage(self, tmp_path):
        # Surgical bit flips that keep the zip intact are exactly what the
        # sha256 digest exists for; force the mismatch path directly by
        # rewriting a member with valid-but-different content.
        store = ArtifactStore(tmp_path / "cache")
        key, arrays = self._put_one(store)
        path = store.cache_dir / "objects" / f"{key}.npz"
        with np.load(path, allow_pickle=False) as archive:
            payload = dict(archive.items())
        payload["x"] = payload["x"] + 1.0  # content no longer matches digest
        np.savez(path, **payload)
        fresh = ArtifactStore(tmp_path / "cache")
        assert fresh.get(key, stage="unit") is None
        assert fresh.stats()["corruptions"] == 1

    def test_quarantined_artifact_rebuilds_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key, arrays = self._put_one(store)
        path = store.cache_dir / "objects" / f"{key}.npz"
        path.write_bytes(b"not a zip at all")
        fresh = ArtifactStore(tmp_path / "cache")
        assert fresh.get(key, stage="unit") is None  # quarantined
        fresh.put(key, {"n": 3}, arrays, stage="unit")  # the rebuild
        again = ArtifactStore(tmp_path / "cache")
        artifact = again.get(key, stage="unit")
        assert artifact is not None
        np.testing.assert_array_equal(artifact.arrays["x"], arrays["x"])
        # The counters persist across store instances: the one historical
        # corruption remains on record, but the rebuild reads clean.
        assert again.stats()["corruptions"] == 1
        assert again.stats()["stages"]["unit"]["hits"] >= 1

    def test_transient_read_faults_absorbed_by_retries(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key, arrays = self._put_one(store)
        faults = FaultInjector().arm()
        faults.rule("store.read", nth=1)
        flaky = ArtifactStore(tmp_path / "cache", faults=faults,
                              retry=RetryPolicy(sleep=lambda s: None))
        artifact = flaky.get(key, stage="unit")
        assert artifact is not None
        np.testing.assert_array_equal(artifact.arrays["x"], arrays["x"])
        assert flaky.stats()["retries"] == 1
        assert flaky.stats()["read_failures"] == 0

    def test_exhausted_read_is_a_miss_that_leaves_the_file(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key, _ = self._put_one(store)
        faults = FaultInjector().arm()
        faults.rule("store.read")  # permanently failing read
        flaky = ArtifactStore(tmp_path / "cache", faults=faults,
                              retry=RetryPolicy(sleep=lambda s: None))
        assert flaky.get(key, stage="unit") is None
        assert flaky.stats()["read_failures"] == 1
        assert (store.cache_dir / "objects" / f"{key}.npz").exists()
        faults.disarm()
        assert flaky.get(key, stage="unit") is not None  # recovers in place

    def test_exhausted_write_degrades_to_memory_only(self, tmp_path):
        faults = FaultInjector().arm()
        faults.rule("store.write")
        store = ArtifactStore(tmp_path / "cache", faults=faults,
                              retry=RetryPolicy(sleep=lambda s: None))
        key, arrays = self._put_one(store)
        assert store.stats()["put_failures"] == 1
        # The artifact still serves from memory for this process ...
        artifact = store.get(key, stage="unit")
        assert artifact is not None
        np.testing.assert_array_equal(artifact.arrays["x"], arrays["x"])
        # ... but never reached disk.
        assert not (store.cache_dir / "objects" / f"{key}.npz").exists()

    def test_clear_empties_the_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        key, _ = self._put_one(store)
        path = store.cache_dir / "objects" / f"{key}.npz"
        path.write_bytes(b"garbage")
        fresh = ArtifactStore(tmp_path / "cache")
        fresh.get(key, stage="unit")
        assert fresh.stats()["quarantine_entries"] == 1
        fresh.clear()
        assert fresh.stats()["quarantine_entries"] == 0


# -- a failing shard ----------------------------------------------------------


class TestFailingShard:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_exception_reaches_the_caller_and_the_next_query_answers(
        self, workers
    ):
        # Every shard lives in this process, so a shard fails only by a
        # bug: its exception must reach the caller unchanged, inline or
        # from a pooled search, and nothing of it may outlive the query.
        codes = random_codes(30, 16)
        index = ShardedIndex(16, n_shards=3, workers=workers).add(codes)
        queries = random_codes(3, 16, seed=8)
        index.shards[1].search = _raise_boom  # instance attr shadows method
        index.shards[1].radius_search = _raise_boom
        with pytest.raises(RuntimeError, match="mid-search"):
            index.search(queries, top_k=5)
        with pytest.raises(RuntimeError, match="mid-search"):
            index.radius_search(queries, radius=16)
        del index.shards[1].search, index.shards[1].radius_search
        ids, dist = index.search(queries, top_k=5)
        flat_ids, flat_dist = HammingIndex(16).add(codes).search(queries,
                                                                  top_k=5)
        np.testing.assert_array_equal(ids, flat_ids)
        np.testing.assert_array_equal(dist, flat_dist)
        index.close()


# -- batcher poison isolation -------------------------------------------------


class PoisonEncoder:
    """Encoder that fails on rows whose first feature is negative."""

    def __init__(self, bits=8):
        self.n_bits = bits
        self.inner = identity_network(bits, bits)

    def encode(self, matrix):
        if np.any(matrix[:, 0] < 0):
            raise ValueError("poison row")
        return self.inner.encode(matrix)


class TestBatcherFaults:
    def test_no_ticket_left_unresolved_on_flush_failure(self):
        # Regression for the silent-hang bug class: a failing batched
        # forward must resolve EVERY pending ticket, one way or the other.
        batcher = EncodeBatcher(PoisonEncoder(), max_batch=64)
        rows = np.ones((5, 8))
        rows[2, 0] = -1.0  # one poisoned row in the cohort
        tickets = [batcher.submit(row) for row in rows]
        batcher.flush()
        assert all(ticket.ready for ticket in tickets)
        assert len(batcher) == 0

    def test_poison_isolated_to_its_own_ticket(self):
        encoder = PoisonEncoder()
        batcher = EncodeBatcher(encoder, max_batch=64)
        rows = np.ones((4, 8))
        rows[1, 0] = -1.0
        tickets = [batcher.submit(row) for row in rows]
        batcher.flush()
        assert tickets[1].failed
        with pytest.raises(TransientError) as err:
            tickets[1].result()
        assert isinstance(err.value.__cause__, ValueError)
        clean = encoder.inner.encode(np.ones((1, 8)))[0]
        for ticket in (tickets[0], tickets[2], tickets[3]):
            assert not ticket.failed
            np.testing.assert_array_equal(ticket.result(), clean)
        stats = batcher.stats()
        assert stats["flush_failures"] == 1
        assert stats["isolation_flushes"] == 1
        assert stats["poisoned"] == 1

    def test_repro_errors_pass_through_untouched(self):
        def encode(matrix):
            raise DeadlineExceededError("typed already")

        batcher = EncodeBatcher(encode, max_batch=4)
        ticket = batcher.submit(np.ones(8))
        batcher.flush()
        with pytest.raises(DeadlineExceededError):
            ticket.result()

    def test_injected_encode_faults_are_typed(self):
        faults = FaultInjector().arm()
        faults.rule("encode.forward", nth=1)
        batcher = EncodeBatcher(identity_network(8, 8), max_batch=4,
                                faults=faults)
        ticket = batcher.submit(np.ones(8))
        batcher.flush()
        with pytest.raises(TransientError):
            ticket.result()
        # The schedule fired once; the next submit encodes cleanly.
        assert batcher.submit(np.ones(8)).result().shape == (8,)

    def test_wrong_row_count_from_encoder_poisons_typed(self):
        def encode(matrix):
            return np.ones((matrix.shape[0] + 1, 8))

        batcher = EncodeBatcher(encode, max_batch=4)
        ticket = batcher.submit(np.ones(8))
        with pytest.raises(ReproError):
            ticket.result()


# -- service overload / deadline / health -------------------------------------


class TestServiceResilience:
    def make_service(self, **kwargs):
        kwargs.setdefault("n_shards", 3)
        service = HashingService(identity_network(), **kwargs)
        service.load_database(np.random.default_rng(7).normal(size=(12, 8)))
        return service

    def test_overload_sheds_the_whole_request(self):
        service = self.make_service(max_pending=4)
        queries = np.random.default_rng(8).normal(size=(5, 8))
        with pytest.raises(OverloadedError):
            service.query(queries, top_k=2)
        assert service.stats()["shed"] == 5
        assert service.batcher.stats()["pending"] == 0  # nothing enqueued
        ids, dist = service.query(queries[:4], top_k=2)  # under the bound
        assert ids.shape == (4, 2)

    def test_max_pending_validation(self):
        with pytest.raises(ConfigurationError):
            HashingService(identity_network(), max_pending=0)
        with pytest.raises(ConfigurationError):
            HashingService(identity_network(), default_deadline_s=-1.0)

    def test_deadline_budget_raises_typed(self):
        service = self.make_service(clock=TickingClock(step=1.0),
                                    default_deadline_s=0.5)
        with pytest.raises(DeadlineExceededError):
            service.query(np.ones(8), top_k=2)
        assert service.stats()["deadline_exceeded"] == 1

    def test_explicit_deadline_overrides_default(self):
        service = self.make_service(clock=TickingClock(step=1.0),
                                    default_deadline_s=0.5)
        ids, _ = service.query(np.ones(8), top_k=2, deadline_s=1e9)
        assert ids.shape == (1, 2)

    def test_no_deadline_by_default(self):
        service = self.make_service(clock=TickingClock(step=1.0))
        ids, _ = service.query(np.ones(8), top_k=2)
        assert ids.shape == (1, 2)

    def test_health_report_shapes(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        service = HashingService(identity_network(), n_shards=3, store=store)
        service.load_database(
            np.random.default_rng(10).normal(size=(9, 8)),
            key={"name": "health"},
        )
        service.query(np.ones(8), top_k=2)
        report = service.health()
        assert set(report) == {"status", "closed", "workers", "batcher",
                               "shed", "deadline_exceeded", "store"}
        assert report["status"] == "ok" and not report["closed"]
        assert report["store"]["corruptions"] == 0
        assert report["store"]["quarantine_entries"] == 0
        assert report["batcher"]["poisoned"] == 0
        assert report["shed"] == 0 and report["deadline_exceeded"] == 0


# -- cache stats CLI ----------------------------------------------------------


class TestCacheStatsCLI:
    def test_cache_stats_prints_resilience_counters(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        key = "a" * 64
        store = ArtifactStore(cache_dir)
        store.put(key, {}, {"x": np.arange(8.0)}, stage="unit")
        (cache_dir / "objects" / f"{key}.npz").write_bytes(b"garbage")
        fresh = ArtifactStore(cache_dir)
        assert fresh.get(key, stage="unit") is None  # quarantines + persists
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 corruptions" in out and "1 quarantined" in out
        assert "0 retries" in out and "0 read failures" in out
        assert "stage unit" in out

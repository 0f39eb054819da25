"""Tests for the PR 7 resilience layer: deterministic fault injection,
retry policies, circuit breakers, store integrity/quarantine, degraded
sharded serving, and the service's overload/deadline/health surface."""

import numpy as np
import pytest

from repro.core.hashing_network import HashingNetwork
from repro.errors import (
    ArtifactCorruptionError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ShardUnavailableError,
    TransientError,
)
from repro.pipeline import ArtifactStore, content_digest
from repro.retrieval import HammingIndex
from repro.serving import EncodeBatcher, HashingService, ShardedIndex
from repro.utils import CircuitBreaker, FaultInjector, RetryPolicy
from repro.utils.faults import NULL_INJECTOR
from repro.utils.retry import CLOSED, HALF_OPEN, OPEN


def random_codes(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, k)) < 0.5, -1.0, 1.0)


def identity_network(bits=16, dim=8, rng=0):
    return HashingNetwork(bits, mode="feature", feature_extractor=lambda x: x,
                          feature_dim=dim, rng=rng)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TickingClock:
    """Advances by ``step`` on every read — time passes inside a query."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def _raise_boom(*args, **kwargs):
    """Stand-in shard method that fails inside the probe itself."""
    raise RuntimeError("shard blew up mid-probe")


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

    def test_match_filters_on_context(self):
        inj = FaultInjector().arm()
        inj.rule("shard.search", match={"shard": 1})
        inj.check("shard.search", shard=0)
        with pytest.raises(TransientError):
            inj.check("shard.search", shard=1)

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


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # the single probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # others blocked while probing
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_failed_probe_reopens_and_restarts_timer(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()
        assert breaker.stats()["openings"] == 2


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


# -- degraded sharded serving -------------------------------------------------


class TestShardedDegradation:
    def make_index(self, faults=None, clock=None, **kwargs):
        kwargs.setdefault("n_shards", 3)
        kwargs.setdefault("breaker_threshold", 2)
        kwargs.setdefault("breaker_reset_s", 10.0)
        index = ShardedIndex(
            16, faults=faults or NULL_INJECTOR,
            clock=clock or FakeClock(), **kwargs,
        )
        return index.add(random_codes(30, 16))

    def test_dead_shard_degrades_instead_of_failing(self):
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 1})
        index = self.make_index(faults=faults)
        queries = random_codes(4, 16, seed=2)
        ids, dist = index.search(queries, top_k=5)
        assert index.last_query_degraded
        assert ids.shape == dist.shape == (4, 5)
        assert not np.any(ids % 3 == 1)  # nothing from the dead shard
        # Survivors match a healthy index restricted to the alive rows.
        alive = np.flatnonzero(np.arange(30) % 3 != 1)
        reference = HammingIndex(16).add(random_codes(30, 16)[alive])
        r_pos, r_dist = reference.search(queries, top_k=5)
        np.testing.assert_array_equal(ids, alive[r_pos])
        np.testing.assert_array_equal(dist, r_dist)

    def test_padding_when_survivors_run_short(self):
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 0})
        index = ShardedIndex(16, n_shards=2, faults=faults, clock=FakeClock())
        index.add(random_codes(4, 16))  # 2 rows per shard
        ids, dist = index.search(random_codes(1, 16, seed=3), top_k=4)
        assert ids.shape == (1, 4)
        assert list(ids[0][2:]) == [-1, -1]  # padded tail
        assert all(d == 17 for d in dist[0][2:])  # n_bits + 1 sentinel

    def test_all_shards_down_raises_typed(self):
        faults = FaultInjector().arm()
        faults.rule("shard.search")
        index = self.make_index(faults=faults)
        with pytest.raises(ShardUnavailableError):
            index.search(random_codes(1, 16), top_k=3)

    def test_breaker_opens_then_recovers(self):
        clock = FakeClock()
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 2})
        index = self.make_index(faults=faults, clock=clock)
        queries = random_codes(2, 16, seed=4)
        for _ in range(3):
            index.search(queries, top_k=3)
        states = {c["shard"]: c["state"] for c in index.circuit_states()}
        assert states[2] == OPEN and states[0] == states[1] == CLOSED
        # Open circuit short-circuits: the dead shard is not even consulted.
        calls_before = faults.calls["shard.search"]
        index.search(queries, top_k=3)
        assert index.last_query_degraded
        assert faults.calls["shard.search"] == calls_before + 2  # 2 alive
        # Recovery: faults stop, the reset timeout passes, a probe closes it.
        faults.disarm()
        clock.advance(11.0)
        ids, dist = index.search(queries, top_k=3)
        assert not index.last_query_degraded and not index.degraded
        healthy = ShardedIndex(16, n_shards=3).add(random_codes(30, 16))
        h_ids, h_dist = healthy.search(queries, top_k=3)
        np.testing.assert_array_equal(ids, h_ids)
        np.testing.assert_array_equal(dist, h_dist)

    def test_degraded_queries_bypass_and_clear_the_cache(self):
        clock = FakeClock()
        faults = FaultInjector().arm()
        rule = faults.rule("shard.search", match={"shard": 1}, times=6)
        index = self.make_index(faults=faults, clock=clock, cache_size=8)
        queries = random_codes(2, 16, seed=5)
        degraded_ids, _ = index.search(queries, top_k=3)
        assert index.last_query_degraded
        # Enough failures to keep failing through the breaker threshold.
        while rule.fired < 6 and index.degraded:
            index.search(queries, top_k=3)
        faults.disarm()
        clock.advance(11.0)
        healthy_ids, _ = index.search(queries, top_k=3)
        # The degraded answer must not have been served back from cache.
        assert not index.last_query_degraded
        repeat_ids, _ = index.search(queries, top_k=3)
        np.testing.assert_array_equal(healthy_ids, repeat_ids)
        healthy = ShardedIndex(16, n_shards=3).add(random_codes(30, 16))
        np.testing.assert_array_equal(
            healthy_ids, healthy.search(queries, top_k=3)[0]
        )

    def test_radius_search_degrades_too(self):
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 0})
        index = self.make_index(faults=faults)
        hits = index.radius_search(random_codes(2, 16, seed=6), radius=16)
        assert index.last_query_degraded
        for row in hits:
            assert not np.any(row % 3 == 0)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_injected_fault_on_pooled_probe_trips_breaker(self, workers):
        # PR 8: fault schedules are consulted serially at admission, so an
        # injected shard.search fault behaves identically whether the
        # admitted probes then run inline or on the worker pool.
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 1})
        index = self.make_index(faults=faults, workers=workers)
        queries = random_codes(3, 16, seed=7)
        ids, dist = index.search(queries, top_k=5)
        assert index.last_query_degraded
        assert ids.shape == dist.shape == (3, 5)
        kept = ids[ids >= 0]
        assert not np.any(kept % 3 == 1)  # nothing from the faulted shard
        for row in ids:  # no duplicated survivor in any merged row
            alive = row[row >= 0]
            assert len(set(alive.tolist())) == alive.size
        index.search(queries, top_k=5)  # second strike hits threshold=2
        states = {c["shard"]: c["state"] for c in index.circuit_states()}
        assert states[1] == OPEN
        # Same fault schedule, serial pool: byte-identical degraded answer.
        serial_faults = FaultInjector().arm()
        serial_faults.rule("shard.search", match={"shard": 1})
        serial = self.make_index(faults=serial_faults, workers=1)
        np.testing.assert_array_equal(ids, serial.search(queries, top_k=5)[0])

    @pytest.mark.parametrize("workers", [1, 4])
    def test_exception_inside_pooled_probe_trips_breaker(self, workers):
        # A shard blowing up INSIDE a pooled probe (not at admission) must
        # surface through the future, trip that shard's breaker, and leave
        # the merged answer degraded-but-complete — never hang or duplicate.
        index = self.make_index(workers=workers)
        index.shards[1].search = _raise_boom  # instance attr shadows method
        queries = random_codes(3, 16, seed=8)
        ids, dist = index.search(queries, top_k=5)
        assert index.last_query_degraded
        assert ids.shape == (3, 5)
        kept = ids[ids >= 0]
        assert not np.any(kept % 3 == 1)
        for row in ids:
            alive = row[row >= 0]
            assert len(set(alive.tolist())) == alive.size
        index.search(queries, top_k=5)
        states = {c["shard"]: c["state"] for c in index.circuit_states()}
        assert states[1] == OPEN
        serial = self.make_index(workers=1)
        serial.shards[1].search = _raise_boom
        np.testing.assert_array_equal(ids, serial.search(queries, top_k=5)[0])


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
            raise ShardUnavailableError("typed already")

        batcher = EncodeBatcher(encode, max_batch=4)
        ticket = batcher.submit(np.ones(8))
        batcher.flush()
        with pytest.raises(ShardUnavailableError):
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

    def test_degraded_results_map_missing_to_external_minus_one(self):
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 0})
        service = HashingService(identity_network(), n_shards=2,
                                 faults=faults)
        # External ids offset by 100 so internal 0 and external MISSING_ID
        # can never be confused.
        vectors = np.random.default_rng(9).normal(size=(4, 8))
        service.add(vectors, ids=np.arange(100, 104))
        ids, dist = service.query(np.ones(8), top_k=4)
        assert service.last_query_degraded
        assert ids.shape == (1, 4)
        assert set(ids[0][2:]) == {-1}  # padded, not aliased to row 100
        assert all(i in (101, 103) for i in ids[0][:2])  # shard-1 rows

    def test_health_report_shapes(self, tmp_path):
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 1})
        store = ArtifactStore(tmp_path / "cache")
        service = HashingService(
            identity_network(), n_shards=3, store=store, faults=faults,
            index_options={"breaker_threshold": 1},
        )
        service.load_database(
            np.random.default_rng(10).normal(size=(9, 8)),
            key={"name": "health"},
        )
        assert service.health()["status"] == "ok"
        service.query(np.ones(8), top_k=2)
        report = service.health()
        assert report["status"] == "degraded" and report["degraded"]
        assert [c["shard"] for c in report["circuits"]] == [0, 1, 2]
        assert report["store"]["corruptions"] == 0
        assert report["store"]["quarantine_entries"] == 0
        assert report["batcher"]["poisoned"] == 0
        assert report["shed"] == 0 and report["deadline_exceeded"] == 0

    def test_faulted_service_recovers_bit_identical(self):
        clock = FakeClock()
        faults = FaultInjector().arm()
        faults.rule("shard.search", match={"shard": 1})
        service = HashingService(
            identity_network(), n_shards=3, faults=faults, clock=clock,
            index_options={"breaker_threshold": 2, "breaker_reset_s": 5.0},
        )
        rng = np.random.default_rng(11)
        db = rng.normal(size=(15, 8))
        service.load_database(db)
        reference = HashingService(identity_network(), n_shards=3)
        reference.load_database(db)
        queries = rng.normal(size=(3, 8))
        want_ids, want_dist = reference.query(queries, top_k=4)
        service.query(queries, top_k=4)
        assert service.last_query_degraded
        faults.disarm()
        clock.advance(6.0)
        got_ids, got_dist = service.query(queries, top_k=4)
        assert not service.last_query_degraded
        np.testing.assert_array_equal(got_ids, want_ids)
        np.testing.assert_array_equal(got_dist, want_dist)


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

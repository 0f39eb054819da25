"""Fault-scale benchmark: availability and recovery under a seeded outage.

Acceptance gates for the PR 7 resilience layer, at a 4k-row 32-bit
database across 4 shards, driven through :class:`HashingService` with one
:class:`~repro.utils.faults.FaultInjector` schedule spanning every
component (store reads, shard fan-out, encode forwards):

1. **availability** — with shard 1 permanently dead and seeded encode
   failures injected, every query either answers (possibly flagged
   degraded) or raises a *typed* :class:`~repro.errors.ReproError`; zero
   requests hang (the batcher ends every phase with no pending ticket);
2. **exactness** — queries that hit no fault (before the outage and after
   recovery) return results bit-identical to an unfaulted run, and even
   *degraded* answers are bit-identical to a flat-index search over the
   surviving shards' rows (padded tail positions excepted);
3. **recovery** — once the schedule disarms and the breaker reset timeout
   passes, the shard circuits close, ``health()`` returns to ``ok``, and
   answers are bit-identical to the unfaulted run again;
4. **integrity** — a corrupted on-disk snapshot is quarantined (not
   deleted) and rebuilt exactly once, and a transient read fault schedule
   is absorbed by the store's retry policy with zero re-encodes, both
   asserted via the store's persisted counters.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing_network import HashingNetwork
from repro.errors import ReproError, TransientError
from repro.pipeline import ArtifactStore
from repro.retrieval import HammingIndex
from repro.serving import INDEX_STAGE, HashingService
from repro.utils import FaultInjector, RetryPolicy

from conftest import save_result

N_DB = 4096
N_BITS = 32
DIM = 32
N_QUERIES = 60  # per phase: healthy / faulted / recovered
TOP_K = 10
N_SHARDS = 4
DEAD_SHARD = 1
ENCODE_FAULT_RATE = 0.2
BREAKER_RESET_S = 30.0

DB_KEY = {"bench": "fault_scale", "n": N_DB, "dim": DIM, "seed": 23}


class FakeClock:
    """Injectable monotonic clock so breaker recovery needs no wall time."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _network() -> HashingNetwork:
    return HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=DIM, rng=0,
    )


def _service(store, faults, clock) -> HashingService:
    return HashingService(
        _network(), store=store, n_shards=N_SHARDS, faults=faults,
        clock=clock,
        index_options={"breaker_threshold": 3,
                       "breaker_reset_s": BREAKER_RESET_S},
    )


def _no_sleep_retry() -> RetryPolicy:
    return RetryPolicy(sleep=lambda s: None)


def test_bench_fault_scale(results_dir, tmp_path):
    rng = np.random.default_rng(23)
    db = rng.normal(size=(N_DB, DIM))
    queries = rng.normal(size=(3 * N_QUERIES, DIM))

    # -- unfaulted reference: one flat index over the full database ----------
    encoder = _network()
    db_codes = encoder.encode(db)
    reference = HammingIndex(N_BITS)
    reference.add(db_codes)
    ref_ids, ref_dist = reference.search(encoder.encode(queries), top_k=TOP_K)

    # The degraded-mode reference: one flat index over the surviving shards'
    # rows only (hash partitioning assigns internal id i to shard i % 4).
    alive = np.flatnonzero(np.arange(N_DB) % N_SHARDS != DEAD_SHARD)
    partial = HammingIndex(N_BITS)
    partial.add(db_codes[alive])
    part_pos, part_dist = partial.search(
        encoder.encode(queries), top_k=TOP_K
    )
    part_ids = alive[part_pos]

    # -- the faulted service --------------------------------------------------
    clock = FakeClock()
    faults = FaultInjector(seed=7)
    faults.rule("shard.search", match={"shard": DEAD_SHARD})  # dead shard
    faults.rule("encode.forward", rate=ENCODE_FAULT_RATE)
    store = ArtifactStore(tmp_path / "cache", retry=_no_sleep_retry(),
                          faults=faults)
    service = _service(store, faults, clock)
    service.load_database(db, key=DB_KEY)  # builds the snapshot, unfaulted

    def drive(phase_queries):
        """One query at a time: (answers, errors) with no request lost."""
        answers, errors = [], []
        for qi, row in enumerate(phase_queries):
            clock.advance(0.001)
            try:
                ids, dist = service.query(row, top_k=TOP_K)
            except ReproError as exc:
                errors.append((qi, exc))
            else:
                answers.append((qi, service.last_query_degraded, ids, dist))
            assert service.batcher.stats()["pending"] == 0  # no hung ticket
        return answers, errors

    # -- phase 1: healthy -----------------------------------------------------
    ok, errs = drive(queries[:N_QUERIES])
    assert not errs and not any(degraded for _, degraded, _, _ in ok)
    for qi, _, ids, dist in ok:
        np.testing.assert_array_equal(ids[0], ref_ids[qi])
        np.testing.assert_array_equal(dist[0], ref_dist[qi])
    assert service.health()["status"] == "ok"

    # -- phase 2: armed outage ------------------------------------------------
    faults.arm()
    ok2, errs2 = drive(queries[N_QUERIES:2 * N_QUERIES])
    faults.disarm()
    # gate 1: every request resolved, every error typed, none hung.
    assert len(ok2) + len(errs2) == N_QUERIES
    assert all(isinstance(exc, TransientError) for _, exc in errs2)
    assert errs2, "the seeded schedule must inject encode failures"
    assert service.batcher.stats()["poisoned"] == len(errs2)
    # gate 2 (degraded exactness): answers under the dead shard match the
    # flat-index reference over the surviving shards, bit for bit.
    assert ok2 and all(degraded for _, degraded, _, _ in ok2)
    for qi, _, ids, dist in ok2:
        np.testing.assert_array_equal(ids[0], part_ids[N_QUERIES + qi])
        np.testing.assert_array_equal(dist[0], part_dist[N_QUERIES + qi])
    health = service.health()
    assert health["status"] == "degraded"
    open_circuits = [c for c in health["circuits"] if c["state"] != "closed"]
    assert [c["shard"] for c in open_circuits] == [DEAD_SHARD]

    # -- phase 3: recovery ----------------------------------------------------
    clock.advance(BREAKER_RESET_S + 1.0)  # breaker timeout -> half-open probe
    ok3, errs3 = drive(queries[2 * N_QUERIES:])
    assert not errs3 and not any(degraded for _, degraded, _, _ in ok3)
    for qi, _, ids, dist in ok3:
        np.testing.assert_array_equal(ids[0], ref_ids[2 * N_QUERIES + qi])
        np.testing.assert_array_equal(dist[0], ref_dist[2 * N_QUERIES + qi])
    recovered = service.health()
    assert recovered["status"] == "ok" and not recovered["degraded"]

    # -- gate 4a: corrupt snapshot -> quarantined + rebuilt exactly once ------
    snapshot = next(p for p in (store.cache_dir / "objects").glob("*.npz"))
    blob = bytearray(snapshot.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    snapshot.write_bytes(bytes(blob))

    rebuild_store = ArtifactStore(store.cache_dir, retry=_no_sleep_retry())
    rebuilt = _service(rebuild_store, FaultInjector(), FakeClock())
    rebuilt.load_database(db, key=DB_KEY)
    rb = rebuild_store.stats()
    assert rebuilt.stats()["database"]["encodes"] == 1  # rebuilt once
    assert rb["corruptions"] == 1 and rb["quarantined"] == 1
    assert rb["quarantine_entries"] == 1  # preserved for forensics
    stage = rb["stages"][INDEX_STAGE]
    assert stage["corruptions"] == 1 and stage["quarantined"] == 1

    # -- gate 4b: transient read faults absorbed by retries, zero re-encodes -
    read_faults = FaultInjector(seed=11).arm()
    # A rule that fires short-circuits the later ones, so two nth=1 rules
    # fail exactly the first two attempts: attempt 3 reads clean.
    read_faults.rule("store.read", nth=1)
    read_faults.rule("store.read", nth=1)
    warm_store = ArtifactStore(store.cache_dir, retry=_no_sleep_retry(),
                               faults=read_faults)
    warm = _service(warm_store, FaultInjector(), FakeClock())
    warm.load_database(db, key=DB_KEY)
    ws = warm_store.stats()
    assert warm.stats()["database"]["warm_loads"] == 1  # no rebuild
    assert ws["retries"] == 2 and ws["read_failures"] == 0

    degraded_n = sum(1 for _, degraded, _, _ in ok2 if degraded)
    save_result(
        results_dir,
        "fault_scale",
        "\n".join([
            f"fault scale: n={N_DB} bits={N_BITS} shards={N_SHARDS} "
            f"queries={3 * N_QUERIES} top_k={TOP_K}",
            f"outage    : shard {DEAD_SHARD} dead + encode faults at "
            f"rate {ENCODE_FAULT_RATE} (seeded)",
            f"phase 2   : {len(ok2)} answered ({degraded_n} degraded) + "
            f"{len(errs2)} typed errors = {N_QUERIES} requests, 0 hung",
            "exactness : healthy + recovered phases bit-identical to the "
            "unfaulted run; degraded answers bit-identical to the "
            "surviving-shard reference",
            f"recovery  : circuits closed after {BREAKER_RESET_S:.0f}s "
            f"reset, health {recovered['status']!r}",
            f"integrity : corrupt snapshot quarantined+rebuilt once "
            f"(corruptions={rb['corruptions']} quarantined="
            f"{rb['quarantined']}), transient reads absorbed "
            f"(retries={ws['retries']})",
        ]) + "\n",
    )

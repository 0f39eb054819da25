"""Fault-scale benchmark: availability and integrity under seeded faults.

Acceptance gates for the resilience layer, at a 4k-row 32-bit database
across 4 shards, driven through :class:`HashingService` with seeded
:class:`~repro.utils.faults.FaultInjector` schedules (encode forwards,
then store reads):

1. **availability** — with seeded encode failures injected, every query
   either answers or raises a *typed* :class:`~repro.errors.ReproError`;
   zero requests hang (the batcher ends every phase with no pending
   ticket);
2. **exactness** — every answer, before, during and after the faults, is
   bit-identical to an unfaulted run;
3. **integrity** — a corrupted on-disk snapshot is quarantined (not
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
ENCODE_FAULT_RATE = 0.2

DB_KEY = {"bench": "fault_scale", "n": N_DB, "dim": DIM, "seed": 23}


def _network() -> HashingNetwork:
    return HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=DIM, rng=0,
    )


def _service(store, faults) -> HashingService:
    return HashingService(_network(), store=store, n_shards=N_SHARDS,
                          faults=faults)


def _no_sleep_retry() -> RetryPolicy:
    return RetryPolicy(sleep=lambda s: None)


def test_bench_fault_scale(results_dir, tmp_path):
    rng = np.random.default_rng(23)
    db = rng.normal(size=(N_DB, DIM))
    queries = rng.normal(size=(3 * N_QUERIES, DIM))

    # -- unfaulted reference: one flat index over the full database ----------
    encoder = _network()
    reference = HammingIndex(N_BITS)
    reference.add(encoder.encode(db))
    ref_ids, ref_dist = reference.search(encoder.encode(queries), top_k=TOP_K)

    # -- the faulted service --------------------------------------------------
    faults = FaultInjector(seed=7)
    faults.rule("encode.forward", rate=ENCODE_FAULT_RATE)
    store = ArtifactStore(tmp_path / "cache", retry=_no_sleep_retry(),
                          faults=faults)
    service = _service(store, faults)
    service.load_database(db, key=DB_KEY)  # builds the snapshot, unfaulted

    def drive(offset):
        """One query at a time: (answers, errors) with no request lost.

        Gate 2: every answer equals the unfaulted run, bit for bit.
        """
        answers, errors = [], []
        for qi in range(offset, offset + N_QUERIES):
            try:
                ids, dist = service.query(queries[qi], top_k=TOP_K)
            except ReproError as exc:
                errors.append((qi, exc))
            else:
                np.testing.assert_array_equal(ids[0], ref_ids[qi])
                np.testing.assert_array_equal(dist[0], ref_dist[qi])
                answers.append(qi)
            assert service.batcher.stats()["pending"] == 0  # no hung ticket
        return answers, errors

    # -- phase 1: healthy -----------------------------------------------------
    ok1, errs1 = drive(0)
    assert not errs1

    # -- phase 2: armed encode faults -----------------------------------------
    faults.arm()
    ok2, errs2 = drive(N_QUERIES)
    faults.disarm()
    # gate 1: every request resolved, every error typed, none hung.
    assert len(ok2) + len(errs2) == N_QUERIES
    assert all(isinstance(exc, TransientError) for _, exc in errs2)
    assert errs2, "the seeded schedule must inject encode failures"
    assert ok2, "the seeded schedule must let some queries through"
    assert service.batcher.stats()["poisoned"] == len(errs2)

    # -- phase 3: faults off --------------------------------------------------
    ok3, errs3 = drive(2 * N_QUERIES)
    assert not errs3

    # -- gate 3a: corrupt snapshot -> quarantined + rebuilt exactly once ------
    snapshot = next(p for p in (store.cache_dir / "objects").glob("*.npz"))
    blob = bytearray(snapshot.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    snapshot.write_bytes(bytes(blob))

    rebuild_store = ArtifactStore(store.cache_dir, retry=_no_sleep_retry())
    rebuilt = _service(rebuild_store, FaultInjector())
    rebuilt.load_database(db, key=DB_KEY)
    rb = rebuild_store.stats()
    assert rebuilt.stats()["database"]["encodes"] == 1  # rebuilt once
    assert rb["corruptions"] == 1 and rb["quarantined"] == 1
    assert rb["quarantine_entries"] == 1  # preserved for forensics
    stage = rb["stages"][INDEX_STAGE]
    assert stage["corruptions"] == 1 and stage["quarantined"] == 1

    # -- gate 3b: transient read faults absorbed by retries, zero re-encodes -
    read_faults = FaultInjector(seed=11).arm()
    # A rule that fires short-circuits the later ones, so two nth=1 rules
    # fail exactly the first two attempts: attempt 3 reads clean.
    read_faults.rule("store.read", nth=1)
    read_faults.rule("store.read", nth=1)
    warm_store = ArtifactStore(store.cache_dir, retry=_no_sleep_retry(),
                               faults=read_faults)
    warm = _service(warm_store, FaultInjector())
    warm.load_database(db, key=DB_KEY)
    ws = warm_store.stats()
    assert warm.stats()["database"]["warm_loads"] == 1  # no rebuild
    assert ws["retries"] == 2 and ws["read_failures"] == 0

    for each in (service, rebuilt, warm):
        each.close()
    save_result(
        results_dir,
        "fault_scale",
        "\n".join([
            f"fault scale: n={N_DB} bits={N_BITS} shards={N_SHARDS} "
            f"queries={3 * N_QUERIES} top_k={TOP_K}",
            f"faults    : encode faults at rate {ENCODE_FAULT_RATE} "
            f"(seeded) in phase 2",
            f"phase 2   : {len(ok2)} answered + {len(errs2)} typed errors "
            f"= {N_QUERIES} requests, 0 hung",
            f"exactness : all {len(ok1) + len(ok2) + len(ok3)} answers "
            f"(healthy, faulted and recovered phases) bit-identical to the "
            f"unfaulted run",
            f"integrity : corrupt snapshot quarantined+rebuilt once "
            f"(corruptions={rb['corruptions']} quarantined="
            f"{rb['quarantined']}), transient reads absorbed "
            f"(retries={ws['retries']})",
        ]) + "\n",
    )

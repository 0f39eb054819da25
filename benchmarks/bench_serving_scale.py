"""Serving-scale benchmark: micro-batched service vs per-request serving.

Acceptance gates for the sharded online serving layer
(:mod:`repro.serving`), at a 10k-row 64-bit database across 4 shards:

1. **throughput** — answering the query stream through the micro-batched
   :class:`HashingService` (requests coalesce into one network forward per
   flush, one fan-out search per batch) must beat the same service driven
   one request at a time (``max_batch=1``: one forward + one search per
   query) by >= 3x;
2. **exactness** — merged sharded top-k results are bit-identical to one
   flat :class:`~repro.retrieval.HammingIndex` over the same codes, for
   both drive modes;
3. **warm snapshots** — a service restarted against the same
   (model, database) pair warm-loads its index from the
   :class:`~repro.pipeline.ArtifactStore` snapshot with **zero** database
   re-encodes, asserted via the store's per-stage counters.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads (a no-op if numpy is already
# imported, e.g. in a full-suite run): with BLAS's own threads the batched
# leg's forward times went bimodal on a 2-core machine and the 3x gate
# failed intermittently.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.core.hashing_network import HashingNetwork  # noqa: E402
from repro.pipeline import ArtifactStore  # noqa: E402
from repro.retrieval import HammingIndex  # noqa: E402
from repro.serving import INDEX_STAGE, HashingService  # noqa: E402

from conftest import assert_speedup, timed  # noqa: E402

N_DB = 10_000
N_BITS = 64
DIM = 64
N_QUERIES = 256
TOP_K = 10
N_SHARDS = 4
MAX_BATCH = 256
REQUIRED_SPEEDUP = 3.0

DB_KEY = {"bench": "serving_scale", "n": N_DB, "dim": DIM, "seed": 21}


def _network() -> HashingNetwork:
    """A fresh but deterministic encoder (same params every construction)."""
    return HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=DIM, rng=0,
    )


def _service(store: ArtifactStore, max_batch: int) -> HashingService:
    return HashingService(
        _network(), store=store, n_shards=N_SHARDS, max_batch=max_batch,
    )


def test_bench_serving_scale(results_dir, tmp_path):
    rng = np.random.default_rng(21)
    db = rng.normal(size=(N_DB, DIM))
    queries = rng.normal(size=(N_QUERIES, DIM))
    store = ArtifactStore(tmp_path / "serve-cache")

    # -- cold build: the database encodes exactly once into a store snapshot
    unbatched = _service(store, max_batch=1)
    unbatched.load_database(db, key=DB_KEY)
    cold = store.stats()["stages"][INDEX_STAGE]
    assert (cold["hits"], cold["misses"], cold["puts"]) == (0, 1, 1)
    db_cold = unbatched.stats()["database"]
    assert (db_cold["encodes"], db_cold["warm_loads"]) == (1, 0)

    def drive_unbatched():
        parts = [unbatched.query(queries[qi], top_k=TOP_K)
                 for qi in range(N_QUERIES)]
        return (np.concatenate([ids for ids, _ in parts]),
                np.concatenate([dist for _, dist in parts]))

    t_unbatched, (ids_u, dist_u) = timed(drive_unbatched, repeats=2)

    # -- warm build + micro-batched drive
    batched = _service(store, max_batch=MAX_BATCH)
    batched.load_database(db, key=DB_KEY)
    db_warm = batched.stats()["database"]
    assert (db_warm["encodes"], db_warm["warm_loads"]) == (0, 1)
    t_batched, (ids_b, dist_b) = timed(
        lambda: batched.query(queries, top_k=TOP_K), repeats=2
    )
    flush_sizes = batched.batcher.stats()["flush_sizes"]
    assert set(flush_sizes) == {MAX_BATCH}
    assert set(unbatched.batcher.stats()["flush_sizes"]) == {1}

    # -- gate 2: bit-identical to one flat index over the same codes
    encoder = _network()
    reference = HammingIndex(N_BITS)
    reference.add(encoder.encode(db))
    ids_r, dist_r = reference.search(encoder.encode(queries), top_k=TOP_K)
    np.testing.assert_array_equal(ids_b, ids_r)
    np.testing.assert_array_equal(dist_b, dist_r)
    np.testing.assert_array_equal(ids_u, ids_r)
    np.testing.assert_array_equal(dist_u, dist_r)

    # -- gate 3: restart warm-loads the snapshot with zero re-encodes.
    # A fresh ArtifactStore over the same directory is the "new process":
    # it reloads the persisted counters, so its stats are the audit trail.
    before = store.stats()["stages"][INDEX_STAGE]
    restart_store = ArtifactStore(store.cache_dir)
    restarted = _service(restart_store, max_batch=MAX_BATCH)
    restarted.load_database(db, key=DB_KEY)
    after = restart_store.stats()["stages"][INDEX_STAGE]
    db_restart = restarted.stats()["database"]
    assert (db_restart["encodes"], db_restart["warm_loads"]) == (0, 1)
    assert after["misses"] == before["misses"]  # no new encode stage runs
    assert after["puts"] == before["puts"]
    assert after["hits"] == before["hits"] + 1
    ids_w, dist_w = restarted.query(queries, top_k=TOP_K)
    np.testing.assert_array_equal(ids_w, ids_r)
    np.testing.assert_array_equal(dist_w, dist_r)

    # -- gate 1: micro-batched throughput
    assert_speedup(
        results_dir,
        "serving_scale",
        t_unbatched,
        t_batched,
        REQUIRED_SPEEDUP,
        lines=[
            f"serving scale: n={N_DB} bits={N_BITS} dim={DIM} "
            f"queries={N_QUERIES} top_k={TOP_K} shards={N_SHARDS}",
            f"unbatched : {t_unbatched * 1e3:9.1f} ms  "
            f"({N_QUERIES / t_unbatched:8.0f} q/s)  flushes of 1",
            f"batched   : {t_batched * 1e3:9.1f} ms  "
            f"({N_QUERIES / t_batched:8.0f} q/s)  "
            f"flushes of {MAX_BATCH}",
            "agreement : bit-identical to one flat HammingIndex "
            "(batched, unbatched, and warm-restarted)",
            "snapshots : warm restarts re-encoded 0 database rows "
            f"(serve_index stage: {after})",
        ],
    )

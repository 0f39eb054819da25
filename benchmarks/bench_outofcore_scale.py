"""Out-of-core scale benchmark: disk-resident corpus lifecycle vs in-memory.

Acceptance gates for the out-of-core lifecycle (memmapped corpus, a
factored Q replayed from the store as memmapped factors, memmap-fed
training/encoding, and mmapped serving snapshots):

1. a network trained and encoded from the memmapped corpus against the
   store-replayed Q reproduces the heap run bit for bit: same loss
   history, same codes;
2. a warm serving restart against the same store mmaps the packed-code
   snapshot (``snapshot_mmapped``) with zero re-encodes and answers
   queries identically to the cold service.

``python examples/large_corpus.py --out-of-core`` is the interactive
walkthrough of the same lifecycle.
"""

from __future__ import annotations

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity import similarity_from_distributions
from repro.core.similarity_matrix import similarity_from_payload
from repro.core.trainer import UHSCMTrainer
from repro.pipeline import ArtifactStore
from repro.serving import HashingService

from conftest import save_result

N_ROWS = 4_000
FEATURE_DIM = 16
N_BITS = 32


def make_features(n_rows: int, seed: int, out=None) -> np.ndarray:
    """Clustered features; identical draws whether ``out`` is heap or disk."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(32, FEATURE_DIM))
    features = np.empty((n_rows, FEATURE_DIM)) if out is None else out
    step = 8192
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        assignment = rng.integers(0, 32, size=stop - start)
        features[start:stop] = centers[assignment] + 0.5 * rng.normal(
            size=(stop - start, FEATURE_DIM)
        )
    return features


def memmap_features(path, n_rows: int, seed: int) -> np.memmap:
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=(n_rows, FEATURE_DIM)
    )
    make_features(n_rows, seed, out=out)
    out.flush()
    return np.load(path, mmap_mode="r")


def make_network() -> HashingNetwork:
    return HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=FEATURE_DIM, rng=0, dtype="float32",
    )


def test_bench_outofcore_scale(results_dir, tmp_path):
    corpus = memmap_features(tmp_path / "corpus.npy", N_ROWS, seed=N_ROWS)
    store = ArtifactStore(tmp_path / "cache", mmap_threshold_bytes=0)

    # The disk lifecycle's Q: built from the memmapped corpus, stored raw,
    # and replayed as memmapped factors.
    meta, arrays = similarity_from_distributions(corpus).payload()
    stored = store.put("bench-q", meta, arrays, stage="build_q")
    ooc_q = similarity_from_payload(stored.meta, stored.arrays)
    assert all(isinstance(f, np.memmap) for f in ooc_q.factors)

    # Gate 1: training + encoding from the memmapped corpus reproduces the
    # heap run bit for bit.
    config = UHSCMConfig(
        n_bits=N_BITS,
        train=TrainConfig(batch_size=256, epochs=1, dtype="float32"),
    )
    heap_corpus = np.asarray(corpus).copy()
    heap_q = similarity_from_distributions(heap_corpus)
    heap_net, ooc_net = make_network(), make_network()
    heap_history = UHSCMTrainer(heap_net, config).fit(heap_corpus, heap_q)
    ooc_history = UHSCMTrainer(ooc_net, config).fit(corpus, ooc_q)
    assert heap_history.total == ooc_history.total
    heap_codes = heap_net.encode(heap_corpus)
    ooc_codes = ooc_net.encode(corpus)
    assert np.array_equal(heap_codes, ooc_codes)

    # Gate 2: a warm restart mmaps the packed-code snapshot — no re-encode.
    queries = make_features(8, seed=3)
    cold = HashingService(ooc_net, store=store, n_shards=4, max_batch=256)
    cold.load_database(corpus, key={"bench": "outofcore"})
    cold_ids, cold_dists = cold.query(queries, top_k=5)
    assert cold.stats()["database"]["encodes"] == 1

    # Same trained weights, fresh process: only the snapshot is reused.
    warm = HashingService(ooc_net, store=ArtifactStore(
        tmp_path / "cache"), n_shards=4, max_batch=256)
    warm.load_database(corpus, key={"bench": "outofcore"})
    warm_db = warm.stats()["database"]
    warm_ids, warm_dists = warm.query(queries, top_k=5)
    assert np.array_equal(cold_ids, warm_ids)
    assert np.array_equal(cold_dists, warm_dists)

    lines = [
        f"out-of-core scale: n={N_ROWS} dim={FEATURE_DIM} "
        f"factored Q ({ooc_q.nbytes / 1e6:.1f} MB, memmapped from the store)",
        "identity   : loss history and codes bit-identical heap vs memmap",
        f"warm serve : encodes={warm_db['encodes']} "
        f"warm_loads={warm_db['warm_loads']} "
        f"snapshot_mmapped={warm_db['snapshot_mmapped']}",
    ]
    report = "\n".join(lines)
    print("\n" + report)
    save_result(results_dir, "outofcore_scale", report)
    assert warm_db == {"encodes": 0, "warm_loads": 1,
                       "snapshot_mmapped": True}, report

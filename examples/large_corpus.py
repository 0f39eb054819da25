"""Large-corpus walkthrough: Q → train → encode → serve, at 50k rows.

A dense semantic similarity matrix at 50,000 rows would be
50,000² × 8 bytes = 20 GB — far past what `cosine_similarity_matrix` can
materialize on a workstation.  Eq. 6's Q is the cosine similarity of the
corpus rows, so it is held exactly as its (n, m) factor, the
L2-normalised rows: 25.6 MB at 50,000 × 64, and never n²:

1. build Q as its factor with `similarity_from_distributions`;
2. train the hashing network against it with `UHSCMTrainer` (each batch's
   t×t block is computed from the batch's factor rows);
3. encode the corpus in bounded-memory batches;
4. stand the codes up behind the sharded `HashingService` and query it.

With ``--out-of-core`` the corpus itself lives in a memmapped file, and
training, encoding and serving copy only per-batch slices of it to RAM;
the results are bit-identical to the in-memory run.

Run:  python examples/large_corpus.py [--rows N] [--out-of-core]
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.similarity import similarity_from_distributions
from repro.core.trainer import UHSCMTrainer
from repro.serving import HashingService

N_ROWS = 50_000
FEATURE_DIM = 64
N_CLUSTERS = 25
N_BITS = 32


def make_corpus(
    n_rows: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Clustered unit-norm features standing in for a mined corpus.

    ``out`` optionally receives the rows in place (a writable memmap for
    the out-of-core path); generation streams in slices either way, so
    the draws — and therefore the corpus — are identical for both modes.
    """
    centers = rng.normal(size=(N_CLUSTERS, FEATURE_DIM))
    features = np.empty((n_rows, FEATURE_DIM)) if out is None else out
    step = 8192
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        assignment = rng.integers(0, N_CLUSTERS, size=stop - start)
        rows = centers[assignment] + 0.35 * rng.normal(
            size=(stop - start, FEATURE_DIM)
        )
        features[start:stop] = rows / np.linalg.norm(rows, axis=1,
                                                     keepdims=True)
    return features


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="large-corpus walkthrough"
    )
    parser.add_argument("--rows", type=int, default=N_ROWS,
                        help=f"corpus rows (default {N_ROWS})")
    parser.add_argument("--out-of-core", action="store_true",
                        help="memmap the corpus; training and encoding "
                             "copy only per-batch slices to RAM (identical "
                             "results)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    with tempfile.TemporaryDirectory(prefix="repro-example-") as workdir:
        run(args, Path(workdir))


def run(args: argparse.Namespace, workdir: Path) -> None:
    n_rows = args.rows
    rng = np.random.default_rng(0)
    if args.out_of_core:
        corpus_map = np.lib.format.open_memmap(
            workdir / "corpus.npy", mode="w+", dtype=np.float64,
            shape=(n_rows, FEATURE_DIM),
        )
        make_corpus(n_rows, rng, out=corpus_map)
        corpus_map.flush()
        # Drop the writable map before re-opening read-only: RSS counts the
        # same page-cache pages once per live map.  Every consumer below
        # slices the read-only map per batch.
        del corpus_map
        features = np.load(workdir / "corpus.npy", mmap_mode="r")
    else:
        features = make_corpus(n_rows, rng)
    dense_bytes = n_rows * n_rows * 8
    mode = "out-of-core (memmapped)" if args.out_of_core else "in-memory"
    print(f"corpus: {n_rows} rows x {FEATURE_DIM} dims, {mode} "
          f"(a dense Q would be {dense_bytes / 1e9:.1f} GB)")

    # 1. Exact Q as its factor: the L2-normalised corpus rows.
    t0 = time.perf_counter()
    q = similarity_from_distributions(features)
    print(f"Q factor: built in {time.perf_counter() - t0:.1f}s, "
          f"{q.nbytes / 1e6:.1f} MB "
          f"({dense_bytes / q.nbytes:.0f}x smaller than dense)")

    # 2. Train the hash head against Q — the trainer computes each batch's
    #    t×t block from the factor rows (and, for a memmapped corpus,
    #    copies only the batch's feature rows to the heap), so training
    #    memory beyond the factor is O(batch²).
    config = UHSCMConfig(
        n_bits=N_BITS,
        lam=0.5,
        train=TrainConfig(batch_size=128, epochs=1, dtype="float32"),
    )
    network = HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=FEATURE_DIM, rng=0, dtype="float32",
    )
    trainer = UHSCMTrainer(network, config)
    t0 = time.perf_counter()
    history = trainer.fit(features, q)
    print(f"training: {sum(history.batches)} steps in "
          f"{time.perf_counter() - t0:.1f}s, "
          f"final loss {history.total[-1]:.4f}")

    # 3. Encode the corpus (the network batches internally, so encoding
    #    memory is bounded no matter how many rows stream through).
    t0 = time.perf_counter()
    codes = network.encode(features)
    print(f"encode: {codes.shape[0]} codes x {N_BITS} bits "
          f"in {time.perf_counter() - t0:.1f}s")

    # 4. Serve: shard the codes, answer nearest-neighbor queries.  The
    #    service encodes and registers the database in bounded slices.
    service = HashingService(network, n_shards=4, max_batch=256)
    service.load_database(features)
    queries = make_corpus(5, rng)
    ids, dists = service.query(queries, top_k=5)
    for qi in range(ids.shape[0]):
        pairs = ", ".join(
            f"{i}@{d:.0f}" for i, d in zip(ids[qi], dists[qi])
        )
        print(f"query {qi}: top-5 id@distance {pairs}")
    stats = service.stats()
    print(f"service: {stats['size']} rows across "
          f"{len(stats['shards'])} shards")


if __name__ == "__main__":
    main()

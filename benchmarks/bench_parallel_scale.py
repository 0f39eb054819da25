"""Parallel-scale benchmark: the shared worker-pool layer end to end.

Acceptance gates for the two pooled sites, the top-k Q build and the
sharded search fan-out:

1. **Bit-identity everywhere** (asserted on any machine): the parallel
   Q build returns byte-identical CSR ``data``/``indices``/``indptr`` to
   the serial oracle, and the concurrent shard fan-out merges
   byte-identical ``(ids, distances)`` top-k and radius results.
2. **Serial fallback + clean shutdown** (asserted on any machine):
   ``workers=1`` creates no threads — submissions run inline on the
   calling thread and the pool reports ``serial=True`` with matching
   submitted/completed counters.  Every pool closes with
   ``submitted == completed``.
3. **Wall-clock** (gated only on machines with >= 4 cores, like the CI
   runners): the thread-parallel Q build and the concurrent shard
   fan-out must each clear ``REQUIRED_SPEEDUP`` (1.7x) over their
   serial oracles at 4 workers.

The combined report lands in ``results/BENCH_parallel.txt`` with a
machine-readable mirror in ``results/BENCH_parallel.json``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads (a no-op if numpy is already
# imported, e.g. in a full-suite run): the gates measure the worker pool's
# thread-level parallelism, which BLAS's own threading would confound.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from repro.retrieval.sharded import ShardedIndex  # noqa: E402
from repro.utils.mathops import blocked_topk_cosine  # noqa: E402
from repro.utils.parallel import WorkerPool, resolve_workers  # noqa: E402

from conftest import save_result, timed  # noqa: E402

#: Worker count the parallel legs run at (CI pins $REPRO_WORKERS to this).
WORKERS = 4
REQUIRED_SPEEDUP = 1.7

# Q-build leg: big enough that per-tile GEMM dominates dispatch overhead.
Q_ROWS = 6_000
Q_DIM = 384
Q_TOPK = 128
Q_BLOCK_ROWS = 256

# Fan-out leg: a large sharded corpus probed by a query batch.
DB_ROWS = 160_000
N_BITS = 64
N_SHARDS = 4
N_QUERIES = 64
TOP_K = 10


def _gate_active() -> bool:
    return (os.cpu_count() or 1) >= 4


def _q_build(features: np.ndarray, workers) -> tuple[np.ndarray, ...]:
    return blocked_topk_cosine(
        features, Q_TOPK, block_rows=Q_BLOCK_ROWS, workers=workers
    )


def _build_index(codes: np.ndarray, workers: int) -> ShardedIndex:
    index = ShardedIndex(N_BITS, n_shards=N_SHARDS, workers=workers)
    index.add(codes)
    return index


def test_bench_parallel_scale(results_dir):
    rng = np.random.default_rng(8)
    gate = _gate_active()
    lines: list[str] = [
        f"parallel scale: workers={WORKERS} cores={os.cpu_count()} "
        f"speedup gate {'ACTIVE' if gate else 'SKIPPED (< 4 cores)'}",
    ]
    payload: dict = {
        "workers": WORKERS,
        "cores": os.cpu_count(),
        "required_speedup": REQUIRED_SPEEDUP,
        "gate_active": gate,
    }

    # -- serial fallback (gate 2) -------------------------------------------
    pool = WorkerPool(1)
    assert pool.serial
    main_thread_results = pool.map(lambda i: i * i, range(8))
    assert main_thread_results == [i * i for i in range(8)]
    stats = pool.stats()
    assert stats == {"workers": 1, "requested": 1, "serial": True,
                     "submitted": 8, "completed": 8, "rejected": 0}
    pool.close()
    assert resolve_workers(None) == resolve_workers(0) == 1 or \
        os.environ.get("REPRO_WORKERS")  # env may legitimately override None
    lines.append("serial fallback: workers=1 runs inline (no threads), "
                 "counters match")

    # -- Q build: identity + speedup (gates 1 and 3) ------------------------
    features = rng.normal(size=(Q_ROWS, Q_DIM))
    t_serial, serial_csr = timed(lambda: _q_build(features, 1), repeats=2)
    shared = WorkerPool(WORKERS, name="bench-topk")
    try:
        t_parallel, parallel_csr = timed(
            lambda: _q_build(features, shared), repeats=2
        )
        pool_stats = shared.stats()
    finally:
        shared.close()
    assert not pool_stats["rejected"]
    # On a < 4-core box the clamp turns the pool serial and the kernel
    # runs inline without submitting; with real workers every dispatched
    # tile must have drained (clean shutdown).
    assert pool_stats["serial"] or pool_stats["submitted"] > 0
    assert pool_stats["submitted"] == pool_stats["completed"]
    for s_arr, p_arr in zip(serial_csr, parallel_csr):
        assert np.array_equal(s_arr, p_arr)
    q_speedup = t_serial / t_parallel
    lines.append(f"Q build    : serial {t_serial * 1e3:8.1f} ms   "
                 f"thread x{WORKERS} {t_parallel * 1e3:8.1f} ms   "
                 f"speedup {q_speedup:.2f}x   CSR bit-identical")
    payload["q_build"] = {"serial_seconds": t_serial,
                          "parallel_seconds": t_parallel,
                          "speedup": q_speedup}

    # -- shard fan-out: identity + speedup (gates 1 and 3) ------------------
    codes = np.where(rng.random((DB_ROWS, N_BITS)) < 0.5, -1.0, 1.0)
    queries = np.where(rng.random((N_QUERIES, N_BITS)) < 0.5, -1.0, 1.0)
    serial_index = _build_index(codes, workers=1)
    parallel_index = _build_index(codes, workers=WORKERS)
    t_fan_serial, (ids_s, dist_s) = timed(
        lambda: serial_index.search(queries, top_k=TOP_K), repeats=3
    )
    t_fan_parallel, (ids_p, dist_p) = timed(
        lambda: parallel_index.search(queries, top_k=TOP_K), repeats=3
    )
    assert np.array_equal(ids_s, ids_p) and np.array_equal(dist_s, dist_p)
    radius = N_BITS // 3
    for serial_hits, parallel_hits in zip(
        serial_index.radius_search(queries[:8], radius),
        parallel_index.radius_search(queries[:8], radius),
    ):
        assert np.array_equal(serial_hits, parallel_hits)
    # ``requested`` survives the cpu-count clamp; on a >= 4-core box the
    # effective count matches it.
    assert parallel_index.pool_stats()["requested"] == WORKERS
    if gate:
        assert parallel_index.pool_stats()["workers"] == WORKERS
    fan_speedup = t_fan_serial / t_fan_parallel
    lines.append(f"shard fan-out: serial {t_fan_serial * 1e3:8.1f} ms   "
                 f"parallel {t_fan_parallel * 1e3:8.1f} ms   "
                 f"speedup {fan_speedup:.2f}x   merge bit-identical")
    payload["fan_out"] = {"serial_seconds": t_fan_serial,
                          "parallel_seconds": t_fan_parallel,
                          "speedup": fan_speedup}

    if gate:
        lines.append(f"speedup gate: Q build {q_speedup:.2f}x, fan-out "
                     f"{fan_speedup:.2f}x (required >= "
                     f"{REQUIRED_SPEEDUP:.1f}x each)")
    report = "\n".join(lines)
    print("\n" + report)
    save_result(results_dir, "BENCH_parallel", report, payload=payload)
    if gate:
        assert q_speedup >= REQUIRED_SPEEDUP, report
        assert fan_speedup >= REQUIRED_SPEEDUP, report

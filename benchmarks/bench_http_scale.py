"""HTTP serving scale benchmark: concurrent group-commit throughput.

Acceptance gates for the async front end:

1. **Bit-identity** (asserted on any machine): responses decoded from
   the HTTP/JSON wire match a direct in-process
   ``HashingService.query`` exactly — same ids, bit-identical float64
   distances (Python's json serializes floats via repr, which round
   trips exactly).
2. **Clean shed** (asserted on any machine): flooding the server past
   its admission bound yields only 200s and typed 429s — no hung
   connections, no 5xx — and the server keeps serving afterwards.
3. **Zero-drop hot swap** (asserted on any machine): swapping the
   model under live traffic completes every in-flight and subsequent
   request (all 200s) while the served fingerprint switches to v2.
4. **Wall-clock** (gated only on machines with >= 4 cores, like the CI
   runners): 8 concurrent HTTP clients must push >=
   ``REQUIRED_SPEEDUP`` (3x) the throughput of one serial HTTP client
   over the same request set — concurrency is what lets rows from
   independent connections share forwards in the group-commit batcher —
   and the concurrent run's server-side query p99 must stay under
   ``P99_BOUND_S``.  Both legs run identically configured servers: the
   batcher has no timer, so the serial client never waits for
   co-arrivals.

How rows coalesce is a mechanism, checked deterministically by the
tier-1 batcher tests; this smoke only reports its multi-row flush count,
which depends on timing (these urllib clients open a new connection per
request).

The combined report lands in ``results/BENCH_http.txt`` with a
machine-readable mirror in ``results/BENCH_http.json``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread *before* numpy loads (a no-op if numpy is already
# imported, e.g. in a full-suite run): the gate measures request-level
# concurrency, which BLAS's own threading would hand to the serial
# baseline for free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import urllib.error  # noqa: E402
import urllib.request  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.hashing_network import HashingNetwork  # noqa: E402
from repro.serving import HashingService  # noqa: E402
from repro.serving.http import ServingApp, run_server_in_thread  # noqa: E402

from conftest import save_result  # noqa: E402

#: Concurrent throughput must beat one serial client by this factor.
REQUIRED_SPEEDUP = 3.0
#: Server-side query p99 bound for the concurrent run (gate machines).
P99_BOUND_S = 0.5

DIM = 512
BITS = 64
DB_ROWS = 4000
TOP_K = 10
N_CLIENTS = 8
QUERIES_PER_CLIENT = 15
N_QUERIES = N_CLIENTS * QUERIES_PER_CLIENT
SEED = 0


def _gate() -> bool:
    return (os.cpu_count() or 1) >= 4


def _network(rng: int = SEED) -> HashingNetwork:
    return HashingNetwork(BITS, mode="feature", feature_extractor=lambda x: x,
                          feature_dim=DIM, rng=rng)


def _service(db: np.ndarray, *, rng: int = SEED) -> HashingService:
    service = HashingService(_network(rng), n_shards=4, max_batch=64)
    service.add(db)
    return service


def _post(port: int, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(port: int, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=60
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _run_clients(port: int, queries: np.ndarray, n_clients: int):
    """Fan ``queries`` over ``n_clients`` threads; returns (seconds, rows).

    Row ``i`` of the result is the decoded response for query row ``i``
    regardless of which client carried it, so the caller can check every
    response against the direct-query oracle.
    """
    per_client = queries.shape[0] // n_clients
    outcomes: list = [None] * queries.shape[0]

    def client(c: int) -> None:
        for i in range(c * per_client, (c + 1) * per_client):
            outcomes[i] = _post(port, "/query",
                                {"vector": queries[i].tolist(),
                                 "top_k": TOP_K})

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0, outcomes


def _serve_clients(db: np.ndarray, queries: np.ndarray, n_clients: int):
    """Run :func:`_run_clients` against a fresh server over ``db``;
    returns ``(seconds, rows, /stats body)``."""
    handle = run_server_in_thread(
        ServingApp(_service(db), max_inflight=N_CLIENTS * 2),
    )
    try:
        seconds, rows = _run_clients(handle.port, queries, n_clients)
        _, stats = _get(handle.port, "/stats")
    finally:
        handle.stop()
    assert all(status == 200 for status, _ in rows)
    return seconds, rows, stats


def test_bench_http_scale(results_dir):
    gate = _gate()
    rng = np.random.default_rng(SEED)
    db = rng.standard_normal((DB_ROWS, DIM))
    queries = rng.standard_normal((N_QUERIES, DIM))
    lines = [
        f"http scale: cores={os.cpu_count()} clients={N_CLIENTS} "
        f"queries={N_QUERIES} db={DB_ROWS}x{DIM} bits={BITS} "
        f"gate={'on' if gate else 'off (needs >= 4 cores)'}",
    ]
    payload: dict = {
        "cores": os.cpu_count(),
        "gate": gate,
        "required_speedup": REQUIRED_SPEEDUP,
        "p99_bound_s": P99_BOUND_S,
        "n_queries": N_QUERIES,
        "n_clients": N_CLIENTS,
    }

    # -- oracle: direct in-process queries (no HTTP) ------------------------
    oracle_service = _service(db)
    oracle = [oracle_service.query(queries[i], top_k=TOP_K)
              for i in range(N_QUERIES)]
    oracle_service.close()

    # -- serial baseline (one client), then N concurrent clients -------------
    t_serial, serial_rows, _ = _serve_clients(db, queries, n_clients=1)
    t_concurrent, concurrent_rows, stats = _serve_clients(
        db, queries, n_clients=N_CLIENTS
    )

    # -- gate 1: wire responses bit-identical to direct queries -------------
    for rows in (serial_rows, concurrent_rows):
        for i, (_, body) in enumerate(rows):
            ids, distances = oracle[i]
            assert body["ids"] == ids.tolist(), f"query {i}: ids diverge"
            assert body["distances"] == distances.tolist(), (
                f"query {i}: distances not bit-identical over the wire"
            )
    lines.append(f"bit-identity: {2 * N_QUERIES} wire responses match "
                 f"direct HashingService.query exactly")

    flushes = stats["service"]["batcher"]["flush_sizes"]
    coalesced = sum(int(count) for size, count in flushes.items()
                    if int(size) > 1)
    query_p99 = stats["server"]["latency"]["query"]["p99_s"]
    speedup = t_serial / t_concurrent
    serial_qps = N_QUERIES / t_serial
    concurrent_qps = N_QUERIES / t_concurrent
    lines.append(f"serial     : {t_serial * 1e3:8.1f} ms "
                 f"({serial_qps:8.0f} q/s, 1 client)")
    lines.append(f"concurrent : {t_concurrent * 1e3:8.1f} ms "
                 f"({concurrent_qps:8.0f} q/s, {N_CLIENTS} clients)   "
                 f"speedup {speedup:.2f}x")
    lines.append(f"latency    : server-side query p99 "
                 f"{query_p99 * 1e3:.1f} ms   "
                 f"{coalesced} multi-row flush(es)")
    payload["serial"] = {"seconds": t_serial, "qps": serial_qps}
    payload["concurrent"] = {"seconds": t_concurrent,
                             "qps": concurrent_qps,
                             "speedup": speedup,
                             "p99_s": query_p99,
                             "coalesced_flushes": coalesced}

    # -- gate 2: clean shed past the admission bound ------------------------
    release = threading.Event()
    entered = threading.Event()
    network = _network()

    def gated_encode(matrix: np.ndarray) -> np.ndarray:
        entered.set()
        release.wait(30)
        return network.encode(matrix)

    shed_service = HashingService(gated_encode, n_bits=BITS, max_batch=64)
    release.set()
    shed_service.add(db[:64])
    release.clear()
    entered.clear()
    shed_app = ServingApp(shed_service, max_inflight=2)
    shed_handle = run_server_in_thread(shed_app)
    try:
        statuses: list = [None] * N_CLIENTS

        def flood(i: int) -> None:
            statuses[i] = _post(shed_handle.port, "/query",
                                {"vector": queries[i].tolist()})[0]

        threads = [threading.Thread(target=flood, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        entered.wait(30)
        time.sleep(0.2)  # let the rest reach the admission gate
        release.set()
        for thread in threads:
            thread.join(60)
        shed_count = sum(1 for status in statuses if status == 429)
        served = sum(1 for status in statuses if status == 200)
        assert served + shed_count == N_CLIENTS, statuses
        assert shed_count >= 1, "no request was shed past max_inflight=2"
        # The overload was transient: the server serves again immediately.
        assert _post(shed_handle.port, "/query",
                     {"vector": queries[0].tolist()})[0] == 200
    finally:
        release.set()
        shed_handle.stop()
    lines.append(f"admission  : {served}/{N_CLIENTS} served, "
                 f"{shed_count} shed with typed 429 at max_inflight=2, "
                 f"server healthy after")
    payload["shed"] = {"served": served, "shed": shed_count}

    # -- gate 3: hot swap under live traffic drops nothing ------------------
    v1 = _service(db, rng=SEED)
    v2 = _service(db, rng=SEED + 1)
    swap_app = ServingApp(v1, service_factory=lambda source: v2,
                          max_inflight=N_CLIENTS * 2)
    swap_handle = run_server_in_thread(swap_app)
    swap_statuses: list[int] = []
    swap_lock = threading.Lock()
    try:
        def traffic(c: int) -> None:
            for i in range(20):
                status, _ = _post(swap_handle.port, "/query",
                                  {"vector": queries[(c + i) % N_QUERIES]
                                   .tolist()})
                with swap_lock:
                    swap_statuses.append(status)

        threads = [threading.Thread(target=traffic, args=(c,))
                   for c in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # swap lands mid-traffic
        swap_status, swap_body = _post(swap_handle.port, "/swap",
                                       {"model": "v2"})
        for thread in threads:
            thread.join(120)
        assert swap_status == 200, swap_body
        assert swap_body["model_key"] == v2.model_key
        assert swap_app.service is v2
        assert v1.closed and not v2.closed
        dropped = [status for status in swap_statuses if status != 200]
        assert not dropped, (
            f"hot swap dropped {len(dropped)} request(s): {dropped}"
        )
        # Post-swap traffic is served by v2.
        _, post_swap_stats = _get(swap_handle.port, "/stats")
        assert post_swap_stats["model_key"] == v2.model_key
    finally:
        swap_handle.stop()
    lines.append(f"hot swap   : {len(swap_statuses)} live requests, "
                 f"0 dropped across the v1 -> v2 switch")
    payload["swap"] = {"live_requests": len(swap_statuses), "dropped": 0}

    if gate:
        lines.append(f"speedup gate: {speedup:.2f}x (required >= "
                     f"{REQUIRED_SPEEDUP:.1f}x), p99 "
                     f"{query_p99 * 1e3:.1f} ms (bound "
                     f"{P99_BOUND_S * 1e3:.0f} ms)")
    report = "\n".join(lines)
    print("\n" + report)
    save_result(results_dir, "BENCH_http", report, payload=payload)
    if gate:
        assert speedup >= REQUIRED_SPEEDUP, report
        assert query_p99 <= P99_BOUND_S, report

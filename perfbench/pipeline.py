"""cell-dense and index-sparse: from features to a result, in this process.

cell-dense is one paper-parity Table-1 cell: ``ExperimentContext``
(cifar10, scale 0.2), ``fit("UHSCM", 64)`` with dense Q and 60 epochs,
then ``evaluate``.  index-sparse is the large-corpus path at 30k
clustered rows: ``SparseTopKSimilarity.from_features`` on 2 workers, one
float32 epoch of ``UHSCMTrainer.fit``, then ``HashingService.load_database``.

One operation is one cell or one build.  Each set-up ends with one
untimed operation on a small input (a scale-0.02 cell, a 2k-row build),
so imports and first-call costs land in ``setup_s``, not in the window.
Operations repeat until the window is spent; every repeat must reproduce
the first one exactly.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

import report

#: Set-ups per measured run (at least this many, and at least
#: ``SETUP_MIN_S`` of them); ``setup_s`` is their median.
SETUPS = 3
SETUP_MIN_S = 1.0

CELL_DATASET = "cifar10"
CELL_SCALE = 0.2
CELL_BITS = 64
CELL_WARMUP_SCALE = 0.02
#: mAP of the cell at seed 0, and the least any seed's cell may reach.
CELL_MAP_SEED0 = 0.9957831187681845
CELL_MAP_FLOOR = 0.95

SPARSE_ROWS = 30_000
SPARSE_QUERIES = 300
FEATURE_DIM = 64
CLUSTERS = 25
SPARSE_K = 32
SPARSE_BITS = 32
SPARSE_WARMUP_ROWS = 2_000
WORKERS = 2
#: Least mAP against the cluster labels any seed's index may reach.
SPARSE_MAP_FLOOR = 0.9


def corpus(seed: int) -> dict:
    """Clustered unit-norm rows with cluster labels, plus held-out queries."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(CLUSTERS, FEATURE_DIM))

    def draw(n: int):
        labels = rng.integers(0, CLUSTERS, size=n)
        rows = centers[labels] + 0.35 * rng.normal(size=(n, FEATURE_DIM))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True), labels

    features, labels = draw(SPARSE_ROWS)
    queries, query_labels = draw(SPARSE_QUERIES)
    return {"features": features, "labels": labels, "queries": queries,
            "query_labels": query_labels}


def build_index(data: dict):
    """Features to a servable index; returns ``(network, service)``."""
    from repro.config import TrainConfig, UHSCMConfig
    from repro.core.hashing_network import HashingNetwork
    from repro.core.similarity_matrix import SparseTopKSimilarity
    from repro.core.trainer import UHSCMTrainer
    from repro.serving import HashingService

    features = data["features"]
    q = SparseTopKSimilarity.from_features(features, SPARSE_K,
                                           workers=WORKERS)
    config = UHSCMConfig(
        n_bits=SPARSE_BITS, lam=0.5,
        train=TrainConfig(batch_size=128, epochs=1, dtype="float32"),
    )
    network = HashingNetwork(
        SPARSE_BITS, mode="feature", feature_extractor=_identity,
        feature_dim=FEATURE_DIM, rng=0, dtype="float32",
    )
    UHSCMTrainer(network, config).fit(features, q)
    service = HashingService(network, n_shards=4, max_batch=256)
    service.load_database(features)
    return network, service


def _identity(x):
    return x


def index_map(data: dict, network) -> float:
    """mAP of the served codes against the cluster labels."""
    from repro.retrieval import evaluate_codes

    one_hot = np.eye(CLUSTERS)
    return evaluate_codes(
        network.encode(data["queries"]), network.encode(data["features"]),
        one_hot[data["query_labels"]], one_hot[data["labels"]],
    ).map


def run(workload: str, seed: int, seconds: float, trace: bool,
        tracer) -> dict:
    from repro.experiments.runner import ExperimentContext

    if workload == "cell-dense":
        def op(ctx):
            fit = ctx.fit("UHSCM", CELL_BITS, use_cache=False)
            return ctx.evaluate(fit).map

        def setup():
            op(ExperimentContext(CELL_DATASET, scale=CELL_WARMUP_SCALE,
                                 seed=seed))
            return ExperimentContext(CELL_DATASET, scale=CELL_SCALE,
                                     seed=seed)
    else:
        op = build_index

        def setup():
            data = corpus(seed)
            _network, service = build_index(
                {"features": data["features"][:SPARSE_WARMUP_ROWS]})
            service.close()
            return data

    setups: list[float] = []
    while len(setups) < SETUPS or sum(setups) < SETUP_MIN_S:
        start = time.perf_counter()
        state = setup()
        setups.append(time.perf_counter() - start)

    traced_op = tracer.traced("bench.op", op)
    durations: list[float] = []
    traced_flags: list[bool] = []
    outputs = []
    window = time.perf_counter()
    # Start another operation only while it is expected to end inside the
    # window; a traced run alternates untraced and traced operations and
    # needs at least one of each.
    while (len(durations) < (2 if trace else 1)
           or time.perf_counter() - window + statistics.median(durations)
           <= seconds):
        tracer.enabled = trace and len(durations) % 2 == 1
        start = time.perf_counter()
        outputs.append(traced_op(state))
        durations.append(time.perf_counter() - start)
        traced_flags.append(tracer.enabled)
        tracer.enabled = False

    checks: dict[str, bool] = {}
    if workload == "cell-dense":
        scores = outputs
        checks["every cell reproduces the first mAP"] = (
            len(set(scores)) == 1)
        if seed == 0:
            checks["mAP equals the recorded seed-0 value"] = (
                scores[0] == CELL_MAP_SEED0)
        score = scores[0]
        checks[f"mAP >= {CELL_MAP_FLOOR}"] = bool(score >= CELL_MAP_FLOOR)
        failed = sum(s != scores[0] for s in scores)
    else:
        keys = [service.model_key for _network, service in outputs]
        checks["every build reproduces the first model"] = len(set(keys)) == 1
        score = index_map(state, outputs[0][0])
        checks[f"mAP >= {SPARSE_MAP_FLOOR}"] = bool(
            score >= SPARSE_MAP_FLOOR)
        failed = sum(k != keys[0] for k in keys)
        for _network, service in outputs:
            service.close()

    if trace:
        traced = [d for d, t in zip(durations, traced_flags) if t]
        plain = [d for d, t in zip(durations, traced_flags) if not t]
        roots = {span[0]: span[5] - span[4] for span in tracer.spans
                 if span[3] == "bench.op"}
        table = report.layer_table(tracer.spans, roots, "unattributed")
        build_q = sum(table["similarity.build_q"]["dur_s"])
        busy = sum(end - start for start, end in tracer.tasks)
        metrics = report.per_layer_metrics(
            table, len(roots), sum(roots.values()),
            100.0 * (statistics.median(traced) / statistics.median(plain)
                     - 1.0),
            busy / (WORKERS * build_q) if tracer.tasks else 0.0,
        )
    else:
        # A run holds only 2-5 operations: the tail is the slowest one.
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "p50_ms": (statistics.median(durations) * 1e3, "ms"),
            "tail_ms": (max(durations) * 1e3, "ms"),
            "map": (score, "mAP"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
    return {
        "metrics": metrics,
        "attempted": len(durations),
        "failed": failed,
        "checks": checks,
        "notes": {"operations_s": durations, "setups_s": setups},
    }

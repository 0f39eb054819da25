"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli train   --dataset cifar10 --bits 64 --out model.npz
    python -m repro.cli eval    --dataset cifar10 --model model.npz
    python -m repro.cli table1  --scale 0.03 --bits 32 64
    python -m repro.cli table1  --resume           # continue a killed run
    python -m repro.cli table2  --scale 0.03
    python -m repro.cli cache   stats              # artifact-store counters
    python -m repro.cli cache   clear
    python -m repro.cli export  --results benchmarks/results --out EXPERIMENTS.md
    python -m repro.cli serve   --dataset cifar10 --model model.npz --queries 3
    python -m repro.cli serve   --dataset cifar10 --model <fingerprint> --repl
    python -m repro.cli serve-http --dataset cifar10 --port 8035

All commands run fully offline on the simulated substrate.  Timing and
cross-checking live in the scale smokes under ``benchmarks/`` and in the
repository benchmark under ``perfbench/``, not in this CLI.

``--workers N`` (on ``serve`` / ``serve-http``; default
``$REPRO_WORKERS``, else 1) runs the one pooled site, the sharded search
fan-out, on N threads of the shared
:class:`~repro.utils.parallel.WorkerPool`.  Merged results are
bit-identical to the serial path at any count.

``serve`` stands up the online serving facade over a dataset's database
split: the model comes from a persistence archive (``--model model.npz``),
a store fingerprint published with ``--publish``, or a fresh in-process
training run; with ``--cache-dir`` the encoded database persists as a
store snapshot, so a restarted ``serve`` warm-loads its index without
re-encoding.  One-shot mode answers ``--queries N`` query-split rows and
exits; ``--repl`` reads ``q <i> [k]`` / ``remove <id...>`` / ``stats`` /
``quit`` from stdin.

``serve-http`` runs the same facade as a network daemon: a blocking
HTTP/JSON front end with one thread per connection (``POST /query /add
/remove /swap``, ``GET /stats /health``) whose concurrent connections
share the group-commit micro-batcher (rows that queue during one encode
forward ride the next, at most ``--batch`` per forward; an idle server
never waits), with bounded admission (``--max-inflight``, the only bound
on concurrent work, shed as HTTP 429), per-endpoint latency percentiles
in ``/stats``, zero-drop model hot swap via ``POST /swap`` (needs
``--cache-dir``; target is a published fingerprint), and graceful
SIGTERM/SIGINT drain.  ``serve`` and ``serve-http`` search one shard
unless ``--shards`` says otherwise.

``--cache-dir`` on ``train`` / ``table1`` / ``table2`` (or ``--resume``,
which implies the default cache dir) attaches a content-addressed
:class:`~repro.pipeline.ArtifactStore` to
the run: UHSCM mines each dataset's Q once for every bit width, finished
(method, n_bits) cells persist on disk, and an interrupted ``table1`` /
``table2`` run resumes where it died.  Artifacts of at least
``ArtifactStore.MMAP_BYTES`` (32 MiB) are stored raw and come back as
read-only memmaps.  The default location is ``$REPRO_CACHE_DIR`` or
``.repro-cache``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.config import PAPER_BIT_LENGTHS, paper_config
from repro.datasets import DATASET_NAMES, load_dataset
from repro.vlp import SimCLIP


def default_cache_dir() -> Path:
    """The artifact-store location used when none is given explicitly."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


def _make_store(args: argparse.Namespace):
    """Build the run's ArtifactStore, or None when caching is off."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "resume", False):
        cache_dir = default_cache_dir()
    if cache_dir is None:
        return None
    from repro.pipeline import ArtifactStore

    return ArtifactStore(cache_dir)


def _print_store_summary(store) -> None:
    if store is None:
        return
    stats = store.stats()
    print(f"cache: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['disk_entries']} artifacts on disk "
          f"({stats['disk_bytes'] / 1e6:.1f} MB) in {store.cache_dir}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="cifar10")
    parser.add_argument("--scale", type=float, default=0.04,
                        help="fraction of the paper's split sizes")
    parser.add_argument("--seed", type=int, default=0)


def _add_cache_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact-store directory enabling Q reuse and "
                             "resumable fits (default: caching off)")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="threads for the shard fan-out; results are "
                             "bit-identical at any count "
                             "(default: $REPRO_WORKERS, else serial)")


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.persistence import save_uhscm
    from repro.core.uhscm import UHSCM
    from repro.pipeline import dataset_key

    store = _make_store(args)
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    clip = SimCLIP(data.world)
    config = paper_config(args.dataset, n_bits=args.bits, seed=args.seed)
    model = UHSCM(config, clip=clip)
    model.fit(data.train_images, store=store,
              data_key=dataset_key(args.dataset, args.scale, args.seed))
    print(f"trained UHSCM ({args.bits} bits) on {args.dataset}; "
          f"kept {len(model.mined_concepts)} concepts")
    _print_store_summary(store)
    if args.out:
        save_uhscm(model, args.out)
        print(f"saved model to {args.out}")
    from repro.retrieval import evaluate_hashing

    print(evaluate_hashing(model, data))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_uhscm
    from repro.retrieval import evaluate_hashing

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    clip = SimCLIP(data.world)
    model = load_uhscm(args.model, clip)
    print(evaluate_hashing(model, data))
    return 0


def _serving_model(args: argparse.Namespace):
    """The store, dataset, CLIP and model that ``serve``/``serve-http`` serve.

    The model loads from ``--model`` or trains fresh, and ``--publish``
    snapshots it into the store.  Returns ``None`` after saying why when
    ``--publish`` has no ``--cache-dir``.
    """
    from repro.pipeline import dataset_key
    from repro.serving import load_model, publish_model

    store = _make_store(args)
    if args.publish and store is None:
        print("--publish requires --cache-dir")
        return None
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    clip = SimCLIP(data.world)
    if args.model is not None:
        model = load_model(args.model, clip, store=store)
        print(f"loaded model {args.model}")
    else:
        from dataclasses import replace

        from repro.core.uhscm import UHSCM

        config = paper_config(args.dataset, n_bits=args.bits, seed=args.seed)
        if args.epochs is not None:
            config = replace(config, train=replace(config.train,
                                                   epochs=args.epochs))
        model = UHSCM(config, clip=clip)
        model.fit(data.train_images, store=store,
                  data_key=dataset_key(args.dataset, args.scale, args.seed))
        print(f"trained fresh UHSCM ({args.bits} bits) on {args.dataset}")
    if args.publish:
        print(f"published model snapshot: {publish_model(store, model)}")
    return store, data, clip, model


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.pipeline import dataset_key
    from repro.serving import HashingService

    loaded = _serving_model(args)
    if loaded is None:
        return 1
    store, data, _clip, model = loaded

    service = HashingService(
        model, store=store, n_shards=args.shards,
        cache_size=args.cache_size, max_batch=args.batch,
        workers=args.workers,
    )
    service.load_database(
        data.database_images,
        key=dataset_key(args.dataset, args.scale, args.seed,
                        split="database"),
    )
    db_stats = service.stats()["database"]
    how = "warm snapshot load" if db_stats["warm_loads"] else "cold encode"
    if db_stats["snapshot_mmapped"]:
        how += ", codes memmapped"
    print(f"index ready: {len(service)} rows in {args.shards} shard(s), "
          f"{service.stats()['workers']} fan-out worker(s) ({how})")

    def answer(rows: np.ndarray, top_k: int) -> None:
        ids, dist = service.query(rows, top_k=top_k)
        for qi in range(ids.shape[0]):
            pairs = ", ".join(f"{i}@{d:.0f}" for i, d in zip(ids[qi], dist[qi]))
            print(f"  hit(id@dist): {pairs}")

    def print_stats() -> None:
        stats = service.stats()
        print(f"  size={stats['size']} shards={stats['shards']}")
        batcher = stats["batcher"]
        print(f"  batcher: {batcher['requests']} requests in "
              f"{batcher['flushes']} flushes "
              f"(sizes {batcher['flush_sizes']})")
        for label, cache in stats["caches"].items():
            print(f"  cache[{label}]: {cache['hits']} hits / "
                  f"{cache['misses']} misses "
                  f"(hit rate {cache['hit_rate']:.0%})")
        for stage, counts in sorted(stats.get("store_stages", {}).items()):
            print(f"  stage {stage}: {counts}")

    if not args.repl:
        n = min(args.queries, data.query_images.shape[0])
        print(f"one-shot: answering {n} query-split rows (top_k={args.topk})")
        if n:
            answer(data.query_images[:n], args.topk)
        print_stats()
        return 0

    print("serve REPL — commands: q <i> [k] | remove <id...> | stats | quit")
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        cmd = parts[0].lower()
        try:
            if cmd in ("quit", "exit"):
                break
            elif cmd == "q":
                i = int(parts[1])
                k = int(parts[2]) if len(parts) > 2 else args.topk
                answer(data.query_images[i:i + 1], k)
            elif cmd == "remove":
                removed = service.remove([int(p) for p in parts[1:]])
                print(f"  removed {removed} row(s); {len(service)} remain")
            elif cmd == "stats":
                print_stats()
            else:
                print(f"  unknown command {cmd!r}")
        except Exception as exc:  # REPL: report, keep serving
            print(f"  error: {exc}")
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.pipeline import dataset_key
    from repro.serving import HashingService, load_model
    from repro.serving.http import ServerThread, ServingApp

    loaded = _serving_model(args)
    if loaded is None:
        return 1
    store, data, clip, model = loaded

    db_key = dataset_key(args.dataset, args.scale, args.seed,
                         split="database")

    def build_service(encoder) -> HashingService:
        service = HashingService(
            encoder, store=store, n_shards=args.shards,
            cache_size=args.cache_size, max_batch=args.batch,
            workers=args.workers,
        )
        service.load_database(data.database_images, key=db_key)
        return service

    def swap_factory(source: str) -> HashingService:
        # POST /swap: load the replacement model (store fingerprint or
        # archive path) and stand up its index while v1 keeps serving.
        return build_service(load_model(source, clip, store=store))

    service = build_service(model)
    app = ServingApp(service, service_factory=swap_factory,
                     max_inflight=args.max_inflight)
    handle = ServerThread(app, host=args.host, port=args.port).start()
    print(f"index ready: {len(service)} rows in {args.shards} shard(s)")
    print(f"serving on http://{args.host}:{handle.port}  "
          f"(thread per connection, max_inflight={args.max_inflight} "
          f"group-commit batch<={args.batch})")
    print("endpoints: POST /query /add /remove /swap   GET /stats /health")

    stop = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        print(f"received {signal.Signals(signum).name}: draining in-flight "
              "requests, refusing new work ...")
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        stop.wait()
    finally:
        handle.stop()
        hist = app.metrics["query"]
        if hist.count:
            snap = hist.snapshot()
            print(f"served {snap['count']} queries: "
                  f"p50 {snap['p50_s'] * 1e3:.1f} ms, "
                  f"p95 {snap['p95_s'] * 1e3:.1f} ms, "
                  f"p99 {snap['p99_s'] * 1e3:.1f} ms")
        print("shutdown complete: batcher flushed, shard pool joined")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import run_table1

    store = _make_store(args)
    table = run_table1(scale=args.scale, bit_lengths=tuple(args.bits),
                       datasets=(args.dataset,), seed=args.seed,
                       epochs=args.epochs, store=store)
    print(table.render())
    _print_store_summary(store)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments import run_table2

    store = _make_store(args)
    table = run_table2(scale=args.scale, bit_lengths=tuple(args.bits),
                       datasets=(args.dataset,), seed=args.seed,
                       epochs=args.epochs, store=store)
    print(table.render())
    _print_store_summary(store)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline import ArtifactStore

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    if args.action == "clear":
        if not cache_dir.exists():
            print(f"cache {cache_dir} does not exist; nothing to clear")
            return 0
        removed = ArtifactStore(cache_dir).clear()
        print(f"cleared {removed} artifacts from {cache_dir}")
        return 0
    if not cache_dir.exists():
        print(f"cache {cache_dir} does not exist")
        return 0
    stats = ArtifactStore(cache_dir).stats()
    print(f"artifact store at {cache_dir}")
    print(f"  hits      : {stats['hits']}")
    print(f"  misses    : {stats['misses']}")
    print(f"  puts      : {stats['puts']}")
    print(f"  evictions : {stats['evictions']}")
    print(f"  on disk   : {stats['disk_entries']} artifacts, "
          f"{stats['disk_bytes'] / 1e6:.1f} MB")
    print(f"  integrity : {stats['corruptions']} corruptions, "
          f"{stats['quarantined']} quarantined "
          f"({stats['quarantine_entries']} held, "
          f"{stats['quarantine_bytes'] / 1e6:.1f} MB)")
    print(f"  resilience: {stats['retries']} retries, "
          f"{stats['read_failures']} read failures, "
          f"{stats['put_failures']} put failures")
    for stage, counts in sorted(stats["stages"].items()):
        print(f"  stage {stage:<8}: {counts['hits']} hits, "
              f"{counts['misses']} misses, "
              f"{counts['evictions']} evictions, "
              f"{counts['corruptions']} corruptions, "
              f"{counts['quarantined']} quarantined, "
              f"{counts['disk_entries']} on disk "
              f"({counts['disk_bytes'] / 1e6:.1f} MB)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import write_experiments_md

    write_experiments_md(args.results, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train UHSCM on one dataset")
    _add_common(p_train)
    _add_cache_dir(p_train)
    p_train.add_argument("--bits", type=int, default=64)
    p_train.add_argument("--out", default=None, help="save model here (.npz)")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    _add_common(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_serve = sub.add_parser(
        "serve",
        help="stand up the online serving facade (one-shot or REPL)",
    )
    _add_common(p_serve)
    _add_cache_dir(p_serve)
    _add_workers(p_serve)
    p_serve.add_argument("--model", default=None,
                         help="model source: persistence archive path or "
                              "store fingerprint (default: train fresh)")
    p_serve.add_argument("--bits", type=int, default=64,
                         help="code length when training fresh")
    p_serve.add_argument("--epochs", type=int, default=None,
                         help="epoch override when training fresh")
    p_serve.add_argument("--publish", action="store_true",
                         help="publish the model snapshot to the store and "
                              "print its fingerprint (requires --cache-dir)")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="index shards; results are identical at any "
                              "count")
    p_serve.add_argument("--cache-size", type=int, default=0,
                         help="merged query-result cache entries")
    p_serve.add_argument("--batch", type=int, default=256,
                         help="encode micro-batch size")
    p_serve.add_argument("--topk", type=int, default=5)
    p_serve.add_argument("--queries", type=int, default=3,
                         help="one-shot mode: answer this many query rows")
    p_serve.add_argument("--repl", action="store_true",
                         help="interactive driver on stdin")
    p_serve.set_defaults(func=_cmd_serve)

    p_http = sub.add_parser(
        "serve-http",
        help="serve the hashing index over HTTP/JSON (daemon, one thread "
             "per connection)",
    )
    _add_common(p_http)
    _add_cache_dir(p_http)
    _add_workers(p_http)
    p_http.add_argument("--model", default=None,
                        help="persistence archive path or store fingerprint "
                             "(default: train a fresh model in-process)")
    p_http.add_argument("--bits", type=int, default=64,
                        help="code length when training fresh")
    p_http.add_argument("--epochs", type=int, default=None,
                        help="override training epochs when training fresh")
    p_http.add_argument("--publish", action="store_true",
                        help="publish the model snapshot to the store "
                             "(swap targets need a fingerprint)")
    p_http.add_argument("--shards", type=int, default=1,
                        help="index shards; results are identical at any "
                             "count")
    p_http.add_argument("--cache-size", type=int, default=0,
                        help="merged query-result cache entries")
    p_http.add_argument("--batch", type=int, default=256,
                        help="most rows one encode forward carries")
    p_http.add_argument("--host", default="127.0.0.1")
    p_http.add_argument("--port", type=int, default=8035,
                        help="bind port (0 = pick a free one)")
    p_http.add_argument("--max-inflight", type=int, default=64,
                        help="admission bound, the only limit on concurrent "
                             "work: requests beyond it are shed with "
                             "HTTP 429")
    p_http.set_defaults(func=_cmd_serve_http)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1")
    _add_common(p_t1)
    _add_cache_dir(p_t1)
    p_t1.add_argument("--bits", type=int, nargs="+",
                      default=list(PAPER_BIT_LENGTHS))
    p_t1.add_argument("--epochs", type=int, default=None,
                      help="override training epochs (reproduction scale)")
    p_t1.add_argument("--resume", action="store_true",
                      help="replay finished cells from the artifact store "
                           "(implies --cache-dir, default location)")
    p_t1.set_defaults(func=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 (ablations)")
    _add_common(p_t2)
    _add_cache_dir(p_t2)
    p_t2.add_argument("--bits", type=int, nargs="+", default=[32, 64])
    p_t2.add_argument("--epochs", type=int, default=None,
                      help="override training epochs (reproduction scale)")
    p_t2.add_argument("--resume", action="store_true",
                      help="replay finished cells from the artifact store "
                           "(implies --cache-dir, default location)")
    p_t2.set_defaults(func=_cmd_table2)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the pipeline artifact store"
    )
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="artifact-store directory "
                              "(default: $REPRO_CACHE_DIR or .repro-cache)")
    p_cache.set_defaults(func=_cmd_cache)

    p_exp = sub.add_parser("export", help="assemble EXPERIMENTS.md")
    p_exp.add_argument("--results", default="benchmarks/results")
    p_exp.add_argument("--out", default="EXPERIMENTS.md")
    p_exp.set_defaults(func=_cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

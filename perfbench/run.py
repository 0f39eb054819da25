"""The repository benchmark: HTTP query and Table-1 pipeline workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

The first form runs one workload and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics, from a separate traced run).  The second runs every
workload listed in ``BENCHMARK.json``, each in a fresh process, and
prints every metric by name with its unit.  ``--selftest`` checks the
benchmark's own arithmetic.  A run whose checks fail exits with code 1.

Workloads (closed loop, one client process, BLAS pinned to 1 thread):

- ``query-single``: one keep-alive connection, one query image per
  request to the ``serve-http`` daemon;
- ``cell-dense``: one paper-parity Table-1 cell (fit plus evaluate);
- ``index-sparse``: 30k clustered rows to a servable sparse-Q index.

End-to-end metrics mean the same on every workload; one operation is one
HTTP request, one cell or one index build.  ``ops_per_s`` is the
queries/s of query-single, ``p50_ms`` the cell time or build time of
the pipeline workloads.  ``tail_ms`` is the p95 latency on query-single (a
run fails its checks with fewer than 10 requests beyond it) and the
slowest operation on the pipeline workloads, which run only a few.
``map`` is the mAP@10 of the served answers on query-single, the cell's
mAP on cell-dense, and the index's mAP against the cluster labels on
index-sparse, each computed outside the timed window.  ``error_rate``
is ``failed / attempted``.  Each result line is preceded by the
environment (cores, BLAS threads, source revision, Python and numpy
versions, CPU steal during the run), also saved with the full result
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query-single", "cell-dense", "index-sparse")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far (Linux)."""
    with open("/proc/stat") as fh:
        ticks = [int(field) for field in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def environment(ticks_before: tuple[int, int]) -> dict:
    """Where a result was measured.  ``source_sha256`` identifies the
    program's source when the checkout is not a git repository;
    ``steal_pct`` is the share of CPU time the hypervisor took from this
    machine during the run, the main source of run-to-run spread on a
    shared host."""
    import numpy as np

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    steal, total = cpu_ticks()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": revision,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "steal_pct": round(100.0 * (steal - ticks_before[0])
                           / max(1, total - ticks_before[1]), 2),
    }


def run_one(args, spec: dict) -> int:
    import pipeline
    import query
    from tracing import Tracer, install_layers

    ticks = cpu_ticks()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.workload == "query-single":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = query.run(args.seed, args.seconds, bool(args.trace), ROOT,
                           env, out_dir)
    else:
        tracer = Tracer()
        if args.trace:
            install_layers(tracer)
        result = pipeline.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), tracer)

    kind = "per_layer" if args.trace else "end_to_end"
    expected = [metric["name"] for metric in spec[kind]]
    if sorted(result["metrics"]) != sorted(expected):
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} do not match the "
            f"{kind} list of BENCHMARK.json")
    correct = result["failed"] == 0 and all(result["checks"].values())
    env = environment(ticks)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct, **result}
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=float))

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    for check, ok in result["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {check}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload of ``BENCHMARK.json`` in its own process, so caches
    and peak RSS never carry over from one workload to the next."""
    status = 0
    for workload in [entry["name"] for entry in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
        elif not json.loads(lines[-1])["correct"]:
            status = 1
        print()
    return status


def pin_environment() -> None:
    """Set before numpy loads, and inherited by the daemon: BLAS on one
    thread, no inherited worker-pool defaults (the workloads set their own
    worker counts), unbuffered output so the daemon's port line arrives."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    for var in ("REPRO_WORKERS", "REPRO_POOL"):
        os.environ.pop(var, None)
    os.environ["PYTHONUNBUFFERED"] = "1"


def main() -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: each one listed in "
                             "BENCHMARK.json, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.selftest:
        import selftest

        return selftest.main()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark configuration: result persistence and timing/gating helpers.

Each benchmark regenerates one of the paper's tables/figures and writes the
rendered output to ``benchmarks/results/`` so the reproduced numbers survive
the run (pytest captures stdout).  The scale benchmarks
(``bench_train_scale.py``, ``bench_serving_scale.py``, …) share
:func:`timed` / :func:`assert_speedup` so every speedup gate measures and
reports the same way, and :func:`measure_peak_memory` so every memory gate
profiles the same way (tracemalloc tracks numpy buffers, so the peak
covers the arrays a build actually materializes).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections.abc import Callable, Iterable
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Reproduction scale for benchmarks: fraction of the paper's split sizes.
#: 0.04 ≈ 400-420 training images per dataset; CPU-sized but large enough
#: for the method ordering to be stable.
BENCH_SCALE = 0.04


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(
    results_dir: Path, name: str, content: str, payload: dict | None = None
) -> None:
    """Persist one benchmark report as ``<name>.txt`` plus a JSON mirror.

    The txt file keeps the human-readable rendering (what EXPERIMENTS.md
    assembles); ``<name>.json`` carries the same lines in machine-readable
    form plus any structured ``payload`` the benchmark supplies (timings,
    speedups, gate thresholds), so the perf trajectory can be tracked
    across runs without parsing prose.
    """
    path = results_dir / f"{name}.txt"
    path.write_text(content + "\n")
    record = {"name": name, "lines": content.splitlines()}
    if payload:
        record.update(payload)
    (results_dir / f"{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )


def timed(fn: Callable[[], object], repeats: int = 1) -> tuple[float, object]:
    """Best-of-``repeats`` wall time of ``fn()``; returns ``(seconds, result)``.

    Taking the minimum over a few repeats makes the speedup gates robust to
    load spikes on shared CI machines; the result of the fastest run is
    returned (every run must be deterministic for this to be meaningful).
    """
    best_dt = float("inf")
    best_out: object = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        if dt < best_dt:
            best_dt, best_out = dt, out
    return best_dt, best_out


def measure_peak_memory(fn: Callable[[], object]) -> tuple[int, object]:
    """Peak traced allocation (bytes) during ``fn()``; returns ``(peak, result)``.

    Uses :mod:`tracemalloc`, which numpy registers its buffer allocations
    with, so the peak reflects the arrays the measured code materializes —
    the quantity the similarity-scale gate bounds.  Tracing adds per-
    allocation overhead; time the same callable separately (see
    :func:`timed`) rather than reusing a traced run's wall clock.
    """
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def assert_speedup(
    results_dir: Path,
    name: str,
    baseline_seconds: float,
    candidate_seconds: float,
    required: float,
    lines: Iterable[str] = (),
) -> float:
    """Gate ``baseline/candidate >= required``; print + persist the report.

    ``lines`` carries the benchmark-specific breakdown; the speedup line is
    appended so every scale benchmark reports its gate identically.  The
    report is written to ``results/<name>.txt`` (with a structured JSON
    mirror) before asserting so a failed gate still leaves the measured
    numbers behind.
    """
    speedup = baseline_seconds / candidate_seconds
    report = "\n".join(
        [*lines, f"speedup  : {speedup:.2f}x (required >= {required:.2f}x)"]
    )
    print("\n" + report)
    save_result(
        results_dir, name, report,
        payload={
            "baseline_seconds": baseline_seconds,
            "candidate_seconds": candidate_seconds,
            "speedup": speedup,
            "required_speedup": required,
            "passed": bool(speedup >= required),
        },
    )
    assert speedup >= required, report
    return speedup

"""Shared utilities: deterministic RNG plumbing, stable math, timing,
tables, the worker-pool layer behind every parallel kernel, and the
resilience primitives (fault injection and retries)."""

from repro.utils.faults import NULL_INJECTOR, FaultInjector, FaultRule
from repro.utils.mathops import (
    cosine_similarity_matrix,
    l2_normalize,
    pairwise_inner,
    sign,
    softmax,
    stable_exp,
)
from repro.utils.metrics import DEFAULT_BOUNDS, LatencyHistogram, geometric_bounds
from repro.utils.parallel import WORKERS_ENV, WorkerPool, resolve_workers
from repro.utils.retry import RetryPolicy
from repro.utils.rng import RngMixin, as_generator, spawn
from repro.utils.tables import format_float, render_table
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_array,
    check_binary_codes,
    check_in_range,
    check_positive,
    check_probability_rows,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "FaultInjector",
    "FaultRule",
    "LatencyHistogram",
    "NULL_INJECTOR",
    "RetryPolicy",
    "RngMixin",
    "Timer",
    "WORKERS_ENV",
    "WorkerPool",
    "as_generator",
    "check_array",
    "check_binary_codes",
    "check_in_range",
    "check_positive",
    "check_probability_rows",
    "cosine_similarity_matrix",
    "format_float",
    "geometric_bounds",
    "l2_normalize",
    "pairwise_inner",
    "render_table",
    "resolve_workers",
    "sign",
    "softmax",
    "spawn",
    "stable_exp",
]

"""Shared worker-pool layer for the parallel kernels.

Two paths decompose into independent units of work whose outputs land
in disjoint slots: the sharded search fan-out (a shard probe owns its
merge position) and the blocked top-k cosine kernel behind
``SparseTopKSimilarity.from_features`` (a row-block GEMM tile writes its
own CSR row range), which only the ``index-sparse`` benchmark workload
still runs.  :class:`WorkerPool` is the one dispatch surface both share,
with **deterministic index-ordered result collection** —
:meth:`WorkerPool.map` returns results in submission order no matter
which worker finished first, so every reduction downstream of the pool
runs in the same order as the serial loop and the parallel outputs stay
bit-identical to it.

Workers are threads.  NumPy's BLAS and most large-array ufuncs release
the GIL, so threads scale the GEMM/popcount-bound work without any copy
or pickling cost, and every task can share the caller's arrays, index
and model state directly.

``workers <= 1`` (the default everywhere) is the **serial fallback**: no
executor is created, submissions run inline on the calling thread, and
the pool is a plain function call with counters.  That path is the
bit-identity oracle the parallel-scale bench gates against.

The effective worker count resolves ``workers`` argument →
``$REPRO_WORKERS`` → 1, via :func:`resolve_workers`, and is clamped to
``os.cpu_count()`` (with a logged warning) so a typo'd fleet knob cannot
oversubscribe a box.  The CLI reaches one pooled site, the fan-out,
through ``--workers`` on ``serve`` and ``serve-http``.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Callable, Iterable, Sequence

from repro.errors import ConfigurationError

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

_logger = logging.getLogger("repro.parallel")


def _requested_workers(workers: int | None) -> int:
    """The pre-clamp request: ``workers``, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"${WORKERS_ENV} must be an integer, got {raw!r}"
            ) from None
    return max(1, int(workers))


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: ``workers``, else ``$REPRO_WORKERS``, else 1.

    Values below 1 clamp to 1 (the serial fallback) rather than erroring,
    so callers can pass a "no parallelism" sentinel through unchanged; a
    non-integer ``$REPRO_WORKERS`` raises
    :class:`~repro.errors.ConfigurationError` (a typo'd deployment knob
    must not silently serialize the fleet).  Counts above
    ``os.cpu_count()`` clamp down to it with a logged warning —
    oversubscribing cores never helps the compute-bound kernels and the
    silent variant hid misconfigured fleets; the pre-clamp request stays
    visible in :meth:`WorkerPool.stats` as ``requested``.
    """
    workers = _requested_workers(workers)
    cpus = os.cpu_count() or 1
    if workers > cpus:
        _logger.warning(
            "requested %d workers on a %d-core machine; clamping to %d",
            workers, cpus, cpus,
        )
        return cpus
    return workers


class _SerialFuture:
    """Result of a task the serial pool already ran inline."""

    __slots__ = ("_value", "_exc")

    def __init__(self, value=None, exc: BaseException | None = None) -> None:
        self._value = value
        self._exc = exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._value


class WorkerPool:
    """Thread pool with a serial fallback and deterministic collection.

    Parameters
    ----------
    workers:
        Worker count, resolved through :func:`resolve_workers` (``None``
        reads ``$REPRO_WORKERS``; counts above ``os.cpu_count()`` clamp).
        At ``workers <= 1`` no executor exists and every submission
        executes inline — the serial oracle path.

    Counters
    --------
    ``submitted`` / ``completed`` / ``rejected`` count tasks handed to
    the pool, tasks that finished running (successfully or not), and
    submissions refused because the pool was already closed.  They feed
    ``stats()`` surfaces (:meth:`repro.serving.HashingService.stats`)
    and let tests assert that the serial fallback really ran inline.
    """

    def __init__(
        self, workers: int | None = None, name: str = "repro"
    ) -> None:
        # Read the request once (it may come from the environment) and
        # clamp it once, so ``requested`` is what was asked for.
        self.requested = _requested_workers(workers)
        self.workers = resolve_workers(self.requested)
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self._closed = False
        self._lock = threading.Lock()
        if self.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix=f"{name}-worker",
            )
        else:
            self._executor = None

    @property
    def serial(self) -> bool:
        """Whether this pool is the inline (no-executor) fallback."""
        return self._executor is None

    # -- dispatch ---------------------------------------------------------------

    def submit(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns an object with ``result()``.

        Serial pools execute the task immediately on the calling thread
        (exceptions are captured and re-raised from ``result()``, exactly
        like a real future, so callers never branch on the mode).
        Submitting to a closed pool raises
        :class:`~repro.errors.ConfigurationError` and counts under
        ``rejected``.
        """
        with self._lock:
            if self._closed:
                self.rejected += 1
                raise ConfigurationError("cannot submit to a closed WorkerPool")
            self.submitted += 1
        if self._executor is None:
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:  # re-raised at result(), like a future
                future = _SerialFuture(exc=exc)
            else:
                future = _SerialFuture(value=value)
            with self._lock:
                self.completed += 1
            return future
        future = self._executor.submit(fn, *args, **kwargs)
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future) -> None:
        with self._lock:
            self.completed += 1

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(item) for item in items]`` with pool-parallel execution.

        Results come back **in item order** regardless of completion
        order — the property every parallel kernel's bit-identity rests
        on (reductions downstream of the pool see the serial sequence).
        The first exception, in item order, propagates after all tasks
        were dispatched.
        """
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Refuse new work and join the workers (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting --------------------------------------------------------------

    def stats(self) -> dict:
        """Worker counts and task counters."""
        with self._lock:
            return {
                "workers": self.workers,
                "requested": self.requested,
                "serial": self.serial,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
            }


def as_pool(
    workers: "int | WorkerPool | None", name: str = "repro"
) -> tuple[WorkerPool, bool]:
    """Normalize a ``workers`` argument into ``(pool, owned)``.

    Kernels accept either a worker count (they build and own a transient
    pool) or an existing :class:`WorkerPool` (shared, caller-owned — e.g.
    the benches, which inspect its counters afterwards).  ``owned`` tells
    the caller whether it must :meth:`~WorkerPool.close` the pool.
    """
    if isinstance(workers, WorkerPool):
        return workers, False
    return WorkerPool(workers, name=name), True


__all__: Sequence[str] = (
    "WORKERS_ENV",
    "WorkerPool",
    "as_pool",
    "resolve_workers",
)

"""Shared worker-pool layer for the parallel kernels.

Every hot path in the stack — the blocked/streaming top-k cosine Q build,
the sharded search fan-out, and the per-epoch training step — decomposes
into independent units of work whose outputs land in disjoint slots: a
row-block GEMM tile writes its own CSR row range, a shard probe owns its
merge position, a prefetched batch gather feeds exactly one optimizer
step.  :class:`WorkerPool` is the one dispatch surface those kernels
share, with **deterministic index-ordered result collection** —
:meth:`WorkerPool.map` returns results in submission order no matter
which worker finished first, so every reduction downstream of the pool
runs in the same order as the serial loop and the parallel outputs stay
bit-identical to it.

Two execution backends sit behind the same interface:

``thread`` (the default)
    A stdlib thread pool.  NumPy's BLAS and most large-array ufuncs
    release the GIL, so threads scale the GEMM/popcount-bound work
    without any copy or pickling cost.  The non-BLAS remainder of a
    Q-build tile (the two-level top-k selection, fancy-index CSR writes)
    is small next to its GEMM; on 2 cores, 2 threads build Q faster than
    2 processes.

``process``
    A spawn-based process pool for the GIL-bound remainder.  Tasks must
    be picklable module-level callables; large read-only operands travel
    zero-copy through :meth:`WorkerPool.publish` —
    :mod:`multiprocessing.shared_memory` segments that workers attach by
    name — or through an on-disk memmap path (the out-of-core scratch).
    The pool owns a registry of every published segment and guarantees
    unlink-on-close even when a build raises, so no ``/dev/shm`` segment
    outlives the pool.  Only the process-safe kernels (the top-k Q
    builders) accept this backend; latency-bound call sites that share
    index/model state (shard fan-out, training prefetch) are thread-only
    and reject it via :func:`require_thread_backend`.

``workers <= 1`` (the default everywhere) is the **serial fallback**: no
executor is created, submissions run inline on the calling thread, and
the pool is a plain function call with counters.  That path is the
bit-identity oracle the parallel-scale bench gates against.

The effective worker count resolves ``workers`` argument →
``$REPRO_WORKERS`` → 1, via :func:`resolve_workers`, and is clamped to
``os.cpu_count()`` (with a logged warning) so a typo'd fleet knob cannot
oversubscribe a box; the backend resolves ``backend`` argument →
``$REPRO_POOL`` → ``thread`` via :func:`resolve_pool_backend`.  A single
pair of knobs (the ``workers``/``pool_backend`` config fields, the
``--workers``/``--pool-backend`` CLI flags) therefore controls every
parallel site at once.

.. note::
   This module must stay free of module-level numpy (and other heavy)
   imports: it is the first thing a spawned pool worker unpickles, and
   the worker initializer re-asserts the BLAS thread pinning from
   ``os.environ`` — pinning that only binds if BLAS has not loaded yet.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Callable, Iterable, Sequence

from repro.errors import ConfigurationError

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable supplying the default pool backend.
POOL_BACKEND_ENV = "REPRO_POOL"

#: Recognized pool backends.
POOL_BACKENDS: tuple[str, ...] = ("thread", "process")

#: Environment variables that cap the BLAS/OpenMP thread pools.  The
#: parallel benches pin these to ``1`` before numpy loads so the worker
#: pool owns the cores; pool workers re-assert them in their initializer
#: (spawned children inherit ``os.environ``, but re-setting them is what
#: guarantees the pinning survives exotic launch paths).
BLAS_ENV_VARS: tuple[str, ...] = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_logger = logging.getLogger("repro.parallel")


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
    workers = max(1, int(workers))
    cpus = os.cpu_count() or 1
    if workers > cpus:
        _logger.warning(
            "requested %d workers on a %d-core machine; clamping to %d",
            workers, cpus, cpus,
        )
        return cpus
    return workers


def resolve_pool_backend(backend: str | None = None) -> str:
    """Effective backend: ``backend``, else ``$REPRO_POOL``, else ``thread``.

    Anything outside :data:`POOL_BACKENDS` raises
    :class:`~repro.errors.ConfigurationError` — like a typo'd worker
    count, a typo'd backend must fail loudly, not silently fall back to
    threads.
    """
    if backend is None:
        raw = os.environ.get(POOL_BACKEND_ENV, "").strip()
        if not raw:
            return "thread"
        backend = raw
    if backend not in POOL_BACKENDS:
        raise ConfigurationError(
            f"pool backend must be one of {POOL_BACKENDS}, got {backend!r}"
        )
    return backend


def require_thread_backend(backend: str | None, site: str) -> str:
    """Validate a backend request at a thread-only call site.

    The latency-bound pool consumers (sharded fan-out, the trainer's
    one-slot prefetch) share index/model state with the caller and cannot
    run in child processes.  They resolve their backend through this
    helper so an explicit ``process`` request fails with a typed error
    instead of silently degrading to threads.  ``None`` resolves straight
    to ``thread`` — deliberately *without* consulting ``$REPRO_POOL``, so
    an environment-wide process default still reaches only the
    process-safe kernels.
    """
    if backend is None:
        return "thread"
    resolved = resolve_pool_backend(backend)
    if resolved == "process":
        raise ConfigurationError(
            f"{site} is thread-only (it shares in-process state with the "
            f"caller); pool_backend='process' applies to the top-k Q-build "
            f"kernels — drop the backend override here"
        )
    return resolved


# -- shared-memory operand transport ------------------------------------------


class SharedArrayHandle:
    """Parent-side handle to an ndarray published in POSIX shared memory.

    Created by :func:`publish_shared_array` (usually via
    :meth:`WorkerPool.publish`, which also registers the segment for
    cleanup-on-close).  :attr:`ref` is the small picklable token workers
    pass to :func:`attach_shared_array`; :meth:`release` closes *and
    unlinks* the segment (idempotent — the pool's close path may race a
    kernel's ``finally``).
    """

    __slots__ = ("_shm", "shape", "dtype_str")

    def __init__(self, shm, shape: tuple, dtype_str: str) -> None:
        self._shm = shm
        self.shape = tuple(shape)
        self.dtype_str = dtype_str

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def ref(self) -> tuple:
        """Picklable ``("shm", name, shape, dtype)`` attachment token."""
        return ("shm", self._shm.name, self.shape, self.dtype_str)

    @property
    def released(self) -> bool:
        return self._shm is None

    def release(self) -> None:
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked by a racing cleanup
            pass


def publish_shared_array(array) -> SharedArrayHandle:
    """Copy ``array`` into a fresh shared-memory segment, once.

    The one O(n) copy per build is the price of zero-copy reads from
    every worker afterwards.  Prefer :meth:`WorkerPool.publish`, which
    additionally guarantees unlink-on-close.
    """
    import numpy as np
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    del view  # drop the buffer view before the handle can outlive it
    return SharedArrayHandle(shm, array.shape, array.dtype.str)


def attach_shared_array(ref: tuple):
    """Worker-side attach: ``ref`` token → read-only ndarray view.

    Returns ``(array, shm)``; the caller must keep ``shm`` alive as long
    as the array is in use and ``close()`` it when done.  The attach
    re-registers the segment with the resource tracker, but spawned pool
    children share the parent's tracker (its cache is a set), so the
    registration is idempotent: the parent's unlink performs the single
    matching unregister, and if the parent dies without unlinking the
    tracker reaps the segment at shutdown.
    """
    import numpy as np
    from multiprocessing import shared_memory

    kind, name, shape, dtype_str = ref
    if kind != "shm":
        raise ConfigurationError(f"not a shared-memory ref: {ref!r}")
    shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
    array.flags.writeable = False
    return array, shm


def _process_worker_init(env: dict) -> None:
    """Initializer run once in every spawned pool worker.

    Re-asserts the parent's BLAS thread pinning: spawned children inherit
    ``os.environ`` (which is what binds when BLAS loads during the first
    task unpickle), and re-setting the variables here keeps the pinning
    authoritative even if a launcher scrubbed the environment.  When
    :mod:`threadpoolctl` is importable the limit is additionally applied
    to already-loaded BLAS pools, which is the only post-import lever.
    """
    os.environ.update(env)
    limit = env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")
    if limit:
        try:
            import threadpoolctl

            threadpoolctl.threadpool_limits(int(limit))
        except ImportError:
            pass


def pool_worker_probe(_=None) -> dict:
    """Report a worker's identity + BLAS pinning (picklable diagnostics).

    Mapped over a process pool by the parallel-scale bench to assert that
    the env pinning actually propagated into the children (satisfying
    "assert in-worker threadpool limits where checkable"); also useful as
    a cheap warm-up task that forces every worker to spawn.
    """
    info: dict = {
        "pid": os.getpid(),
        "env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "threadpools": None,
    }
    try:
        import threadpoolctl

        info["threadpools"] = [
            {"library": entry.get("internal_api"),
             "num_threads": entry.get("num_threads")}
            for entry in threadpoolctl.threadpool_info()
        ]
    except ImportError:
        pass
    return info


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
    """Thread or process pool with a serial fallback and deterministic
    collection.

    Parameters
    ----------
    workers:
        Worker count, resolved through :func:`resolve_workers` (``None``
        reads ``$REPRO_WORKERS``; counts above ``os.cpu_count()`` clamp).
        At ``workers <= 1`` no executor exists and every submission
        executes inline — the serial oracle path, whatever the backend.
    backend:
        ``"thread"`` (default) or ``"process"``, resolved through
        :func:`resolve_pool_backend` (``None`` reads ``$REPRO_POOL``).
        The process backend spawns fresh interpreters (spawn context —
        fork would duplicate BLAS thread state) whose initializer
        re-asserts the parent's BLAS pinning; tasks must be picklable
        module-level callables.

    Counters
    --------
    ``submitted`` / ``completed`` / ``rejected`` count tasks handed to
    the pool, tasks that finished running (successfully or not), and
    submissions refused because the pool was already closed;
    ``shm_published`` / ``shm_released`` count shared-memory segments
    through :meth:`publish`/:meth:`release` (equal counts after ``close``
    is the no-leak invariant the parallel-scale bench gates).  They feed
    ``stats()`` surfaces (:meth:`repro.serving.HashingService.stats`)
    and let tests assert that the serial fallback really ran inline.
    """

    def __init__(
        self,
        workers: int | None = None,
        name: str = "repro",
        backend: str | None = None,
    ) -> None:
        self.backend = resolve_pool_backend(backend)
        raw = workers if workers is not None else None
        self.requested = (
            max(1, int(raw)) if isinstance(raw, int) else resolve_workers(raw)
        )
        self.workers = resolve_workers(workers)
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.shm_published = 0
        self.shm_released = 0
        self._shared: list[SharedArrayHandle] = []
        self._closed = False
        self._lock = threading.Lock()
        if self.workers > 1:
            if self.backend == "process":
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                env = {var: os.environ[var] for var in BLAS_ENV_VARS
                       if var in os.environ}
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_process_worker_init,
                    initargs=(env,),
                )
            else:
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

    # -- shared-memory registry -------------------------------------------------

    def publish(self, array) -> SharedArrayHandle:
        """Publish ``array`` in shared memory for this pool's workers.

        The handle is registered with the pool: kernels release it in
        their ``finally`` (:meth:`release`), and anything still alive
        when the pool closes — a build that raised between publish and
        release, say — is unlinked by :meth:`close`.  No ``/dev/shm``
        segment ever outlives the pool.
        """
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "cannot publish to a closed WorkerPool"
                )
        handle = publish_shared_array(array)
        with self._lock:
            self.shm_published += 1
            self._shared.append(handle)
        return handle

    def release(self, handle: SharedArrayHandle) -> None:
        """Unlink a published segment and drop it from the registry."""
        with self._lock:
            try:
                self._shared.remove(handle)
            except ValueError:
                return  # already released (idempotent)
            self.shm_released += 1
        handle.release()

    # -- dispatch ---------------------------------------------------------------

    def submit(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; returns an object with ``result()``.

        Serial pools execute the task immediately on the calling thread
        (exceptions are captured and re-raised from ``result()``, exactly
        like a real future, so callers never branch on the mode).
        Process pools additionally require ``fn`` (and its arguments) to
        be picklable; a worker-side exception re-raises from ``result()``
        with its original type.  Submitting to a closed pool raises
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
        """Refuse new work, join the workers, unlink leftover shared
        memory (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        # Guaranteed shared-memory cleanup: anything a kernel published
        # but never released (e.g. it raised mid-build) dies here.
        while True:
            with self._lock:
                if not self._shared:
                    break
                handle = self._shared.pop()
                self.shm_released += 1
            handle.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting --------------------------------------------------------------

    def stats(self) -> dict:
        """Backend, worker counts, task counters, shared-memory counters."""
        with self._lock:
            return {
                "backend": self.backend,
                "workers": self.workers,
                "requested": self.requested,
                "serial": self.serial,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "shm_published": self.shm_published,
                "shm_released": self.shm_released,
                "shm_active": len(self._shared),
            }


def as_pool(
    workers: "int | WorkerPool | None",
    name: str = "repro",
    backend: str | None = None,
) -> tuple[WorkerPool, bool]:
    """Normalize a ``workers`` argument into ``(pool, owned)``.

    Kernels accept either a worker count (they build and own a transient
    pool) or an existing :class:`WorkerPool` (shared, caller-owned — e.g.
    the benches, which inspect its counters afterwards).  ``owned`` tells
    the caller whether it must :meth:`~WorkerPool.close` the pool.  An
    existing pool carries its own backend; ``backend`` applies only when
    a pool is built here.
    """
    if isinstance(workers, WorkerPool):
        return workers, False
    return WorkerPool(workers, name=name, backend=backend), True


__all__: Sequence[str] = (
    "BLAS_ENV_VARS",
    "POOL_BACKENDS",
    "POOL_BACKEND_ENV",
    "WORKERS_ENV",
    "SharedArrayHandle",
    "WorkerPool",
    "as_pool",
    "attach_shared_array",
    "pool_worker_probe",
    "publish_shared_array",
    "require_thread_backend",
    "resolve_pool_backend",
    "resolve_workers",
)

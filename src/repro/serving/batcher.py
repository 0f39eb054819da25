"""Group-commit batching of single-query encode requests.

Online serving receives queries one at a time, but the hashing network is
dramatically cheaper per row when it runs one forward over many rows.
:class:`EncodeBatcher` bridges the two with group commit (DeWitt et al.,
"Implementation Techniques for Main Memory Database Systems", SIGMOD
1984): ``submit()`` enqueues a row and returns an :class:`EncodeTicket`.
``EncodeTicket.result()`` on a pending ticket *leads* when no forward is
in flight: it takes up to ``max_batch`` pending rows, oldest first, and
runs their forward on its own thread.  Otherwise it waits until the
running forward ends and checks again.  Rows that arrive during a forward
ride the next one, so batches grow with load while an idle batcher never
waits: there is no timer and no background thread, and at most one
forward is in flight at a time.

The batcher follows the encoder's dtype policy: pending rows are stacked
directly in the network's training dtype (``float32`` engines never pay a
float64 round trip on the hot path).

Failure isolation: a batch forward that raises must not take every
co-batched caller down with it, and above all must never leave a ticket
permanently unresolved.  When the batched forward fails, the leader
re-runs each row as its own one-row forward: rows that succeed resolve
normally, rows that keep failing resolve to a **typed error** (a
:class:`~repro.errors.ReproError`; foreign exceptions are wrapped in
:class:`~repro.errors.TransientError`) which :meth:`EncodeTicket.result`
raises to exactly that caller.  The forward consults the batcher's
:class:`~repro.utils.faults.FaultInjector` at the ``encode.forward`` point.

Admission: :meth:`EncodeBatcher.submit_many` checks a ``max_pending``
bound and enqueues a request's rows under one lock, so concurrent callers
can never overshoot the bound; the rows it refuses are counted under the
same lock.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ReproError,
    ShapeError,
    TransientError,
)
from repro.utils.faults import NULL_INJECTOR, FaultInjector


class EncodeTicket:
    """Handle to one submitted query; resolves when its forward finishes.

    A ticket resolves to either a code row or a typed error — never to
    nothing: ``result()`` runs or waits for the forward that carries its
    row, so a caller can never hang on its own request.
    """

    __slots__ = ("_batcher", "_code", "_error", "_done")

    def __init__(self, batcher: "EncodeBatcher") -> None:
        self._batcher = batcher
        self._code: np.ndarray | None = None
        self._error: BaseException | None = None
        self._done = False

    @property
    def ready(self) -> bool:
        """Whether the forward carrying this request has finished."""
        return self._done

    @property
    def failed(self) -> bool:
        """Whether this request resolved to an error."""
        return self._done and self._error is not None

    def _resolve(
        self,
        code: np.ndarray | None = None,
        error: BaseException | None = None,
    ) -> None:
        self._code = code
        self._error = error
        self._done = True

    def result(self) -> np.ndarray:
        """The ±1 code row, encoding it first if it is still pending.

        Leads a forward over the oldest pending rows when none is in
        flight; otherwise waits for the running forward to end and checks
        again.  Raises the typed error this request resolved to, if its
        encode failed — only this caller sees it; co-batched requests that
        encoded fine resolve normally.
        """
        if not self._done:
            self._batcher._lead(lambda: self._done)
        if self._error is not None:
            raise self._error
        assert self._code is not None
        return self._code


class EncodeBatcher:
    """Coalesce single-vector encode requests into batched forwards.

    Parameters
    ----------
    encoder:
        Anything with an ``encode(matrix) -> codes`` method (a
        :class:`~repro.core.hashing_network.HashingNetwork`, a fitted
        UHSCM, any baseline) or a bare callable with that signature.
    max_batch:
        The most rows one forward carries.
    faults:
        :class:`~repro.utils.faults.FaultInjector` consulted at the
        ``encode.forward`` point before every network forward.
    """

    def __init__(
        self,
        encoder,
        max_batch: int = 256,
        faults: FaultInjector = NULL_INJECTOR,
    ) -> None:
        if max_batch <= 0:
            raise ConfigurationError(f"max_batch must be positive: {max_batch}")
        self._encode = encoder.encode if hasattr(encoder, "encode") else encoder
        #: Stack pending rows straight into the engine's training dtype.
        self._dtype = np.dtype(getattr(encoder, "dtype", np.float64))
        self.max_batch = max_batch
        self.faults = faults
        #: Guards the queue, the in-flight flag and the counters; the end
        #: of every forward notifies it so waiting tickets check again.
        self._cond = threading.Condition()
        self._pending: list[tuple[np.ndarray, EncodeTicket]] = []
        self._busy = False  # a forward is in flight
        self.requests = 0
        self.shed = 0
        self.flushes = 0
        self.flush_failures = 0
        self.isolation_flushes = 0
        self.poisoned = 0
        self.flush_sizes: Counter[int] = Counter()

    # -- queue ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return len(self._pending)

    def submit(self, vector: np.ndarray) -> EncodeTicket:
        """Enqueue one query vector; its ticket's ``result()`` encodes it."""
        vector = np.asarray(vector, dtype=self._dtype)
        if vector.ndim == 0:
            raise ShapeError("submit takes one query item, got a scalar")
        return self.submit_many(vector[None])[0]

    def submit_many(
        self, items: np.ndarray, max_pending: int | None = None
    ) -> list[EncodeTicket]:
        """Enqueue every item of ``items`` (first axis = items) at once.

        With ``max_pending``, a request that would push the pending queue
        past that many rows is refused whole with
        :class:`~repro.errors.OverloadedError`: nothing is enqueued and its
        rows are counted as shed.
        """
        items = np.asarray(items, dtype=self._dtype)
        if items.ndim < 2:
            raise ShapeError(
                f"submit_many takes a batch of query items, got shape "
                f"{items.shape}"
            )
        n = items.shape[0]
        with self._cond:
            if self._pending and items.shape[1:] != self._pending[0][0].shape:
                # Reject shape mismatches at submit time: one bad request
                # must not poison the whole batch for every other pending
                # caller.
                raise ShapeError(
                    f"query item shape {items.shape[1:]} does not match the "
                    f"pending batch's {self._pending[0][0].shape}"
                )
            if max_pending is not None and len(self._pending) + n > max_pending:
                self.shed += n
                raise OverloadedError(
                    f"query of {n} row(s) would exceed the pending bound "
                    f"({len(self._pending)} pending, "
                    f"max_pending={max_pending})"
                )
            tickets = [EncodeTicket(self) for _ in range(n)]
            self._pending.extend(zip(items, tickets))
            self.requests += n
        return tickets

    def flush(self) -> None:
        """Encode every pending request, ``max_batch`` rows per forward.

        Resolves tickets nobody is waiting on (e.g. when a service
        closes).  Like any leader it first waits for an in-flight forward.
        """
        self._lead(lambda: not self._pending)

    def _lead(self, done: Callable[[], bool]) -> None:
        """Run forwards on this thread until ``done()`` holds.

        ``done`` is evaluated under the lock.  While another thread's
        forward is in flight, wait for it to end; otherwise detach up to
        ``max_batch`` of the oldest pending rows and forward them.  Every
        forward resolves every ticket it carries before the in-flight flag
        drops, so a woken waiter sees its own ticket resolved.
        """
        while True:
            with self._cond:
                while self._busy and not done():
                    self._cond.wait()
                if done():
                    return
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
                self._busy = True
            try:
                self._run_flush(batch)
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()

    def _forward(self, matrix: np.ndarray) -> np.ndarray:
        """One guarded network forward (the ``encode.forward`` fault point)."""
        self.faults.check("encode.forward")
        return self._encode(matrix)

    @staticmethod
    def _typed(exc: BaseException) -> BaseException:
        """The error a poisoned ticket resolves to: always a ReproError."""
        if isinstance(exc, ReproError):
            return exc
        typed = TransientError(f"encode failed: {exc!r}")
        typed.__cause__ = exc
        return typed

    def _run_flush(self, pending: list[tuple[np.ndarray, EncodeTicket]]) -> None:
        """Forward one detached batch and resolve its tickets.

        Runs outside the queue lock, so concurrent submitters keep queueing
        the next batch while this one encodes.  A failing batched forward
        falls back to one-row forwards so a poisoned request fails alone:
        healthy co-batched rows resolve normally, each failing row's ticket
        resolves to a typed error that ``result()`` raises to its caller.
        """
        batch = np.stack([vector for vector, _ in pending])
        failed = False
        try:
            codes = self._forward(batch)
            if np.asarray(codes).shape[0] != len(pending):
                raise ShapeError(
                    f"encoder returned {np.asarray(codes).shape[0]} rows "
                    f"for a {len(pending)}-row batch"
                )
        except Exception as exc:
            failed = True
            poisoned = 0
            if len(pending) == 1:
                pending[0][1]._resolve(error=self._typed(exc))
                poisoned = 1
            else:
                # Isolate the poison: re-run each row on its own so one bad
                # request cannot fail the whole cohort.
                for vector, ticket in pending:
                    try:
                        ticket._resolve(code=self._forward(vector[None])[0])
                    except Exception as row_exc:
                        ticket._resolve(error=self._typed(row_exc))
                        poisoned += 1
        else:
            for row, (_, ticket) in enumerate(pending):
                ticket._resolve(code=codes[row])
        with self._cond:
            if failed:
                self.flush_failures += 1
                self.poisoned += poisoned
                if len(pending) > 1:
                    self.isolation_flushes += 1
            self.flushes += 1
            self.flush_sizes[len(pending)] += 1

    # -- reporting --------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for ``HashingService.stats()`` / the serve CLI."""
        with self._cond:
            return {
                "requests": self.requests,
                "shed": self.shed,
                "flushes": self.flushes,
                "flush_failures": self.flush_failures,
                "isolation_flushes": self.isolation_flushes,
                "poisoned": self.poisoned,
                "pending": len(self._pending),
                "max_batch": self.max_batch,
                "flush_sizes": {
                    int(size): int(count)
                    for size, count in sorted(self.flush_sizes.items())
                },
            }

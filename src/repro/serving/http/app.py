"""Endpoint handlers for the HTTP serving front end.

:class:`ServingApp` is the transport-agnostic middle layer between the
blocking socket server (:mod:`repro.serving.http.server`) and a
:class:`~repro.serving.service.HashingService`:

- **routing** — ``handle(method, path, payload)`` maps the six endpoints
  (``POST /query|/add|/remove|/swap``, ``GET /stats|/health``) onto the
  service, returning ``(status, body)`` pairs; ``handle_raw`` wraps that
  in JSON decode/encode so the socket server stays pure transport.
- **admission control** — work endpoints pass a bounded in-flight gate:
  past ``max_inflight`` concurrent requests the app sheds with
  :class:`~repro.errors.OverloadedError` (HTTP 429) *before* any work is
  queued — ``handle_raw`` admits before it even decodes the body; once
  draining, with :class:`~repro.errors.ShutdownError` (503).
  ``/stats`` and ``/health`` bypass the gate — operators must be able to
  observe an overloaded server.
- **metrics** — one :class:`~repro.utils.metrics.LatencyHistogram` per
  endpoint (p50/p95/p99 via ``/stats``), plus request/shed/response-class
  counters.
- **hot swap** — ``POST /swap`` builds a replacement service through the
  injected ``service_factory`` *while the current one keeps serving*,
  then switches the reference atomically.  In-flight requests pinned to
  the old service finish on it; the old service is closed only when its
  last request drains, so a swap drops zero requests.

Handlers run inline on the socket server's connection threads, one per
connection; everything here is thread-safe (one lock around the
swap/admission state, thread-safe histograms, and the group-commit
batcher underneath).  A handler exception answers its own request with
the status :func:`~repro.serving.http.schemas.status_for` maps it to
(500 for a bug) and leaves no state behind for later requests.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import Counter
from collections.abc import Callable
from contextlib import contextmanager, nullcontext

from repro.errors import (
    ConfigurationError,
    OverloadedError,
    ShutdownError,
    ValidationError,
)
from repro.serving.http import schemas
from repro.serving.service import HashingService
from repro.utils.metrics import LatencyHistogram

_LOG = logging.getLogger(__name__)


class _ServiceState:
    """One service generation: the instance plus its in-flight pin count."""

    __slots__ = ("service", "inflight", "retired")

    def __init__(self, service: HashingService) -> None:
        self.service = service
        self.inflight = 0
        self.retired = False


class ServingApp:
    """The HTTP front end's endpoint handlers over a swappable service.

    Parameters
    ----------
    service:
        The initial :class:`~repro.serving.service.HashingService`.
    service_factory:
        Optional ``factory(model_source) -> HashingService`` used by
        ``POST /swap`` to build the replacement (load the model by store
        fingerprint, warm-load its index snapshot).  Without one, swap
        requests are refused with a configuration error.
    max_inflight:
        Admission bound: the maximum number of concurrently admitted work
        requests; the gate sheds beyond it with
        :class:`~repro.errors.OverloadedError` (HTTP 429).
    clock:
        Monotonic time source for the latency histograms, injectable for
        deterministic tests.
    """

    def __init__(
        self,
        service: HashingService,
        *,
        service_factory: Callable[[str], HashingService] | None = None,
        max_inflight: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if max_inflight <= 0:
            raise ConfigurationError(
                f"max_inflight must be positive: {max_inflight}"
            )
        self._lock = threading.Lock()
        self._state = _ServiceState(service)
        self._factory = service_factory
        self.max_inflight = max_inflight
        self._clock = clock
        self._inflight = 0
        self._draining = False
        self._swapping = False
        self._swaps = 0
        self._shed = 0
        self._requests = 0
        self._responses: Counter[int] = Counter()
        self.metrics = {
            endpoint: LatencyHistogram(clock=clock)
            for endpoint in ("query", "add", "remove", "swap", "stats",
                             "health", "other")
        }
        #: (method, path) -> (endpoint, handler, whether it is admitted).
        #: Admitted handlers take ``(payload, state)``, the pinned
        #: generation; the observability ones take ``(payload)``.
        self._routes = {
            ("POST", "/query"): ("query", self._handle_query, True),
            ("POST", "/add"): ("add", self._handle_add, True),
            ("POST", "/remove"): ("remove", self._handle_remove, True),
            ("POST", "/swap"): ("swap", self._handle_swap, True),
            ("GET", "/stats"): ("stats", self._handle_stats, False),
            ("GET", "/health"): ("health", self._handle_health, False),
        }

    # -- observability ----------------------------------------------------------

    @property
    def service(self) -> HashingService:
        """The live service generation (swap replaces it atomically)."""
        with self._lock:
            return self._state.service

    @property
    def draining(self) -> bool:
        """Whether the app has begun refusing new work for shutdown."""
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Currently admitted work requests."""
        with self._lock:
            return self._inflight

    # -- admission + swap bookkeeping -------------------------------------------

    @contextmanager
    def _admitted(self):
        """Bounded-admission guard pinning the request to one generation."""
        with self._lock:
            if self._draining:
                raise ShutdownError(
                    "server is draining for shutdown; retry against a "
                    "live replica"
                )
            if self._inflight >= self.max_inflight:
                self._shed += 1
                raise OverloadedError(
                    f"{self._inflight} request(s) already in flight "
                    f"(max_inflight={self.max_inflight}); shed"
                )
            self._inflight += 1
            state = self._state
            state.inflight += 1
        try:
            yield state
        finally:
            with self._lock:
                self._inflight -= 1
                state.inflight -= 1
                retire = state.retired and state.inflight == 0
            if retire:
                self._close_service(state)

    @staticmethod
    def _close_service(state: _ServiceState) -> None:
        try:
            state.service.close()
        except Exception:  # retiring must never fail the swapped traffic
            pass

    # -- dispatch ---------------------------------------------------------------

    def handle(self, method: str, path: str, payload: object = None, *,
               admitted: _ServiceState | None = None):
        """Route one decoded request; returns ``(status, body_dict)``.

        A work endpoint runs on ``admitted``, the generation
        :meth:`handle_raw` pinned when it admitted the request; without
        one, the request passes the admission gate here.

        Library errors map to their taxonomy status (see
        :func:`~repro.serving.http.schemas.status_for`); unknown routes
        return 404; anything foreign is a 500, logged at ERROR with its
        traceback — a handler can never leak an exception to the
        transport, so no connection is left hanging.
        """
        route = self._routes.get((method.upper(), path))
        endpoint = route[0] if route is not None else "other"
        start = self._clock()
        try:
            if route is None:
                status, body = 404, {
                    "error": {
                        "type": "NotFound",
                        "message": f"no route for {method.upper()} {path}",
                    }
                }
            elif not route[2]:
                status, body = 200, route[1](payload)
            else:
                with (self._admitted() if admitted is None
                      else nullcontext(admitted)) as state:
                    status, body = 200, route[1](payload, state)
        except BaseException as exc:
            status, body = schemas.status_for(exc), schemas.error_body(exc)
            if status == 500:
                _LOG.error("%s %s answered 500", method.upper(), path,
                           exc_info=exc)
        self._count(endpoint, start, status)
        return status, body

    def handle_raw(self, method: str, path: str, body: bytes):
        """The byte-level entry the socket server dispatches to.

        A work endpoint passes the admission gate *before* its body is
        decoded, so ``max_inflight`` bounds decoding too and a shed
        request costs no parse.  Then the JSON body is decoded (an empty
        body is ``None``), :meth:`handle` runs on the pinned generation
        and the response is encoded; returns ``(status, response_bytes)``.
        """
        route = self._routes.get((method.upper(), path))
        start = self._clock()
        try:
            with (self._admitted() if route is not None and route[2]
                  else nullcontext()) as state:
                status, out = self.handle(method, path, _decode(body),
                                          admitted=state)
        except (OverloadedError, ShutdownError, ValidationError) as exc:
            status, out = schemas.status_for(exc), schemas.error_body(exc)
            self._count(route[0] if route is not None else "other", start,
                        status)
        return status, json.dumps(schemas.jsonable(out)).encode()

    def _count(self, endpoint: str, start: float, status: int) -> None:
        """Record one answered request's latency and status."""
        self.metrics[endpoint].record(self._clock() - start)
        with self._lock:
            self._requests += 1
            self._responses[status] += 1

    # -- endpoints --------------------------------------------------------------

    def _handle_query(self, payload: object, state: _ServiceState) -> dict:
        request = schemas.parse_query(payload)
        ids, distances = state.service.query(
            request.vectors, top_k=request.top_k,
            deadline_s=request.deadline_s,
        )
        return schemas.query_response(ids, distances)

    def _handle_add(self, payload: object, state: _ServiceState) -> dict:
        request = schemas.parse_add(payload)
        ids = state.service.add(request.vectors, ids=request.ids)
        return {"ids": ids.tolist()}

    def _handle_remove(self, payload: object, state: _ServiceState) -> dict:
        request = schemas.parse_remove(payload)
        removed = state.service.remove(request.ids)
        return {"removed": int(removed)}

    def _handle_swap(self, payload: object, state: _ServiceState) -> dict:
        request = schemas.parse_swap(payload)
        if self._factory is None:
            raise ConfigurationError(
                "hot swap is disabled: the server was started without a "
                "service factory"
            )
        with self._lock:
            if self._swapping:
                raise OverloadedError("another swap is already in progress")
            self._swapping = True
        try:
            # Built on this connection thread while the current generation
            # keeps answering queries — the swap itself is just the
            # reference switch below.
            replacement = self._factory(request.model)
            with self._lock:
                old = self._state
                self._state = _ServiceState(replacement)
                old.retired = True
                self._swaps += 1
                # This request pins ``state``, which then closes as it
                # leaves the gate; ``old`` differs only if another swap
                # ran between this request's admission and its own.
                retire_now = old.inflight == 0
            if retire_now:
                self._close_service(old)
            return {
                "swapped": True,
                "model_key": replacement.model_key,
                "previous_model_key": old.service.model_key,
                "swaps": self._swaps,
            }
        finally:
            with self._lock:
                self._swapping = False

    def _handle_stats(self, payload: object) -> dict:
        with self._lock:
            server = {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "draining": self._draining,
                "requests": self._requests,
                "shed": self._shed,
                "swaps": self._swaps,
                "responses": {
                    str(status): count
                    for status, count in sorted(self._responses.items())
                },
            }
            service = self._state.service
        server["latency"] = {
            endpoint: hist.snapshot()
            for endpoint, hist in self.metrics.items()
            if hist.count
        }
        return {
            "server": server,
            "model_key": service.model_key,
            "service": service.stats(),
        }

    def _handle_health(self, payload: object) -> dict:
        with self._lock:
            draining = self._draining
            service = self._state.service
        report = service.health()
        if draining:
            report["status"] = "draining"
        report["draining"] = draining
        return report

    # -- lifecycle --------------------------------------------------------------

    def begin_drain(self) -> None:
        """Refuse new work with :class:`~repro.errors.ShutdownError`
        while in-flight requests keep running (idempotent)."""
        with self._lock:
            self._draining = True

    def close(self) -> None:
        """Finish the drain: retire the live service once idle.

        Call after the transport has stopped dispatching (the socket
        server joins its connection threads first); a generation still
        pinned by in-flight requests closes when its last one finishes.
        """
        self.begin_drain()
        with self._lock:
            state = self._state
            state.retired = True
            retire_now = state.inflight == 0
        if retire_now:
            self._close_service(state)


def _decode(body: bytes) -> object:
    """The request's JSON payload; an empty body is ``None``."""
    if not body:
        return None
    try:
        return json.loads(body)
    except ValueError:
        raise ValidationError("request body is not valid JSON") from None

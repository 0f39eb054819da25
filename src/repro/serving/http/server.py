"""Asyncio HTTP/1.1 socket server for the serving front end.

Pure stdlib: one :func:`asyncio.start_server` event loop accepts
connections and parses requests; handler work (validation, encode,
search) is dispatched to a dedicated thread pool via
``run_in_executor`` so that

- N concurrent connections put N concurrent callers *inside*
  :meth:`~repro.serving.service.HashingService.query` at once, so rows
  that queue while one encode forward runs share the next one in the
  group-commit :class:`~repro.serving.batcher.EncodeBatcher`, and
- a slow or poisoned request can never stall the accept loop.

The protocol support is deliberately minimal — HTTP/1.1 with
``Content-Length`` bodies and keep-alive; no chunked encoding, no TLS —
because the clients are the bundled CLI, the benchmark harness, and
sidecar load balancers, not browsers.

Lifecycle (``shutdown()`` / SIGTERM path):

1. the app begins draining — new work is refused with
   :class:`~repro.errors.ShutdownError` (503) so load balancers fail
   over immediately;
2. the listening socket closes — no new connections;
3. in-flight handler calls run to completion on the worker pool
   (executor join happens off-loop, so responses still flow);
4. idle keep-alive connections are closed, and the app retires the
   service (which flushes the batcher and joins the shard pool, leaving
   balanced worker/shm counters).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ConfigurationError
from repro.serving.http.app import ServingApp

#: Upper bound on request head + body; a hostile client must not be able
#: to balloon server memory before validation even runs.
MAX_HEAD_BYTES = 16 * 1024
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response_bytes(status: int, body: bytes, *, close: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    )
    return head.encode("ascii") + body


class HttpServer:
    """The asyncio front end over a :class:`ServingApp`.

    Parameters
    ----------
    app:
        The endpoint handlers (admission, metrics, swap live there).
    host / port:
        Bind address; ``port=0`` picks a free port (exposed as
        :attr:`port` after :meth:`start` — tests and the bench rely on
        this).
    concurrency:
        Worker threads for handler dispatch.  This is the server's
        parallelism ceiling; the app's ``max_inflight`` should be at
        least this large or the extra threads only ever shed.
    max_body_bytes:
        Hard cap on ``Content-Length`` (413 beyond it).
    """

    def __init__(
        self,
        app: ServingApp,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        concurrency: int = 8,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if concurrency <= 0:
            raise ConfigurationError(
                f"concurrency must be positive: {concurrency}"
            )
        if max_body_bytes <= 0:
            raise ConfigurationError(
                f"max_body_bytes must be positive: {max_body_bytes}"
            )
        self.app = app
        self.host = host
        self.port = port
        self.concurrency = concurrency
        self.max_body_bytes = max_body_bytes
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopped = False
        #: Connections currently between request-read and response-write
        #: (all touched from the loop thread only); shutdown waits for
        #: this to hit zero before closing sockets so no response is cut.
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise ConfigurationError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.concurrency,
            thread_name_prefix="http-worker",
        )
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ConfigurationError("server not started")
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, then close.

        Idempotent; safe to call from a signal handler's task.
        """
        if self._stopped:
            return
        self._stopped = True
        self.app.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._executor is not None:
            # Joining the pool blocks, so hop off the event loop thread —
            # in-flight handlers still need the loop alive to write their
            # responses.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._executor.shutdown(wait=True)
            )
        # Handlers have returned, but their responses may still be queued
        # on connection tasks; wait for every mid-request connection to
        # finish writing before cutting sockets.
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=30)
        except asyncio.TimeoutError:
            pass
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        self.app.close()

    # -- connection handling ----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                if isinstance(body, int):
                    # Oversized or malformed framing: body carries the
                    # status; answer and hang up.
                    payload = (
                        b'{"error": {"type": "ValidationError", '
                        b'"message": "request too large or malformed"}}'
                    )
                    writer.write(_response_bytes(body, payload, close=True))
                    await writer.drain()
                    break
                self._active += 1
                self._idle.clear()
                try:
                    if self._stopped:
                        # The worker pool is (or is about to be) joined;
                        # answer the drain refusal inline.
                        status, payload = 503, (
                            b'{"error": {"type": "ShutdownError", '
                            b'"message": "server is draining for '
                            b'shutdown"}}'
                        )
                    else:
                        loop = asyncio.get_running_loop()
                        status, payload = await loop.run_in_executor(
                            self._executor, self.app.handle_raw,
                            method, path, body,
                        )
                    close = (not keep_alive or self._stopped
                             or self.app.draining)
                    writer.write(
                        _response_bytes(status, payload, close=close)
                    )
                    await writer.drain()
                finally:
                    self._active -= 1
                    if self._active == 0:
                        self._idle.set()
                if close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            RuntimeError,  # executor shut down mid-dispatch
        ):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on clean EOF, an ``int`` body for
        protocol-level failures (the status to answer with)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between keep-alive requests
            return ("GET", "/", 400, False)
        except asyncio.LimitOverrunError:
            return ("GET", "/", 431, False)
        if len(head) > MAX_HEAD_BYTES:
            return ("GET", "/", 431, False)

        try:
            lines = head.decode("ascii").split("\r\n")
            method, path, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            return ("GET", "/", 400, False)
        path = path.split("?", 1)[0]

        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return (method, path, 400, False)
        if length < 0:
            return (method, path, 400, False)
        if length > self.max_body_bytes:
            return (method, path, 413, False)
        body = await reader.readexactly(length) if length else b""

        keep_alive = version.strip().upper() != "HTTP/1.0"
        if headers.get("connection", "").lower() == "close":
            keep_alive = False
        return (method, path, body, keep_alive)


class ServerThread:
    """A running :class:`HttpServer` on a background event-loop thread.

    Tests, the bench harness, and the CLI's foreground mode all want
    "start it, talk to it over a socket, stop it" without owning an
    event loop — this wrapper gives them that:

    >>> handle = ServerThread(app)          # binds a free port
    >>> handle.start()
    >>> handle.port                         # actual bound port
    >>> ...
    >>> handle.stop()                       # graceful drain, joins thread
    """

    def __init__(self, app: ServingApp, **server_kwargs: object) -> None:
        self.server = HttpServer(app, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop_event = asyncio.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout_s: float = 10.0) -> "ServerThread":
        if self._thread is not None:
            raise ConfigurationError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="http-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ConfigurationError("server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._ready.set()
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        serving = asyncio.ensure_future(self.server.serve_forever())
        await self._stop_event.wait()
        # shutdown() closes the listener, which unblocks serve_forever.
        await self.server.shutdown()
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass

    def stop(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight work, then join the thread."""
        thread, loop = self._thread, self._loop
        if thread is None or loop is None:
            return
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already finished on its own
        thread.join(timeout_s)


def run_server_in_thread(
    app: ServingApp, **server_kwargs: object
) -> ServerThread:
    """Start a server for ``app`` on a daemon thread; returns the handle."""
    return ServerThread(app, **server_kwargs).start()

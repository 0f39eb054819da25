"""Blocking HTTP/1.1 socket server for the serving front end.

Pure stdlib, one thread per connection: an accept thread starts a thread
for each connection, and that thread reads a request, calls
:meth:`~repro.serving.http.app.ServingApp.handle_raw` inline and writes
the response.  No event loop or executor sits between the socket and the
handler, so

- N concurrent connections put N concurrent callers *inside*
  :meth:`~repro.serving.service.HashingService.query` at once, and rows
  that queue while one encode forward runs share the next one in the
  group-commit :class:`~repro.serving.batcher.EncodeBatcher`;
- a slow or poisoned request stalls only its own connection.

Connections are not capped: the app's ``max_inflight`` admission gate is
the only bound on concurrent work.  The clients are the bundled CLI, the
benchmark harness and sidecars, each holding a few keep-alive
connections, which is the regime where threads beat events (von Behren,
Condit & Brewer, "Why Events Are A Bad Idea (for High-Concurrency
Servers)", HotOS 2003).

The protocol support is deliberately minimal — HTTP/1.1 with
``Content-Length`` bodies and keep-alive; no chunked encoding (a
``Transfer-Encoding`` request is answered with a 400 and a close), no TLS.

A connection that sends nothing for :data:`IDLE_TIMEOUT_S` — idle between
requests or stalled inside one — is closed, which frees its thread.  The
same timeout bounds writing a response: one that takes longer than
:data:`IDLE_TIMEOUT_S` to send (a client that stopped reading) is cut.

Lifecycle (``shutdown()`` / SIGTERM path):

1. the app begins draining — new work is refused with
   :class:`~repro.errors.ShutdownError` (503) so load balancers fail
   over immediately;
2. the listening socket closes — no new connections;
3. connections waiting for their next request are shut down, which wakes
   their blocked ``recv``; a connection mid-request finishes it, writes
   the response and closes;
4. connections still open after :data:`DRAIN_TIMEOUT_S` — a response
   stuck on a client that stopped reading — are shut down too, which
   wakes their blocked ``sendall``;
5. the app retires the service (which flushes the batcher and joins the
   shard pool, leaving balanced worker/shm counters); a handler still
   running past the deadline keeps its generation open until it returns.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.errors import ConfigurationError, ValidationError
from repro.serving.http import schemas
from repro.serving.http.app import ServingApp

#: Upper bound on request head + body; a hostile client must not be able
#: to balloon server memory before validation even runs.
MAX_HEAD_BYTES = 16 * 1024
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
#: After answering a request it cannot frame, the server half-closes and
#: reads what the client still sends for at most this long, so the client
#: reads the error response rather than a connection reset.
LINGER_S = 1.0
#: Pause before accepting again after ``accept()`` failed (e.g. out of
#: file descriptors) or a connection thread could not start (a thread or
#: process limit), so a persistent failure does not spin.
ACCEPT_RETRY_S = 0.1
#: How long shutdown waits for in-flight requests to finish and write
#: their responses before it cuts the connections still open.
DRAIN_TIMEOUT_S = 30.0
#: How long a connection may wait for the next bytes of a request, and
#: the longest writing one response may take, before it is closed.
IDLE_TIMEOUT_S = 60.0
_RECV_BYTES = 1 << 16

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


class _FramingError(Exception):
    """A request the transport answers itself, with ``status``, before
    closing the connection."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpServer:
    """The thread-per-connection front end over a :class:`ServingApp`.

    Parameters
    ----------
    app:
        The endpoint handlers (admission, metrics, swap live there).
    host / port:
        Bind address; ``port=0`` picks a free port (exposed as
        :attr:`port` after :meth:`start` — tests and the bench rely on
        this).
    max_body_bytes:
        Hard cap on ``Content-Length`` (413 beyond it).
    """

    def __init__(
        self,
        app: ServingApp,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        if max_body_bytes <= 0:
            raise ConfigurationError(
                f"max_body_bytes must be positive: {max_body_bytes}"
            )
        self.app = app
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        #: Guards the three fields below, shared by the accept thread, the
        #: connection threads and :meth:`shutdown`.
        self._lock = threading.Lock()
        self._stopping = False
        #: Every open connection's socket and the thread serving it.
        self._conns: dict[socket.socket, threading.Thread] = {}
        #: The sockets not inside a request: waiting for the next one, or
        #: lingering after a framing error.  Shutdown cuts these at once
        #: and the rest after the drain.  A socket leaves both collections
        #: before it closes.
        self._idle: set[socket.socket] = set()

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "HttpServer":
        """Bind the listening socket and start accepting connections."""
        if self._listener is not None:
            raise ConfigurationError("server already started")
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server((self.host, self.port),
                                              family=family)
        self.port = self._listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"http-accept-{self.port}",
            daemon=True,
        )
        self._acceptor.start()
        return self

    def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight requests and
        write their responses, close every connection, then retire the
        app's service.  Returns within about :data:`DRAIN_TIMEOUT_S`.

        Idempotent; a server that never started has nothing to drain.
        """
        with self._lock:
            if self._stopping or self._listener is None:
                return
            self.app.begin_drain()
            self._stopping = True
        # On Linux, shutdown() wakes the blocked accept() (and, below, the
        # blocked recv() of idle connections) without any polling.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._acceptor.join()
        self._listener.close()
        with self._lock:
            _cut(self._idle)
            threads = list(self._conns.values())
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        # Past the deadline, cut the connections still open: this wakes a
        # sendall() stuck on a client that stopped reading.
        with self._lock:
            _cut(self._conns)
        self.app.close()

    # -- connection handling ----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._stopping:
                    return
                time.sleep(ACCEPT_RETRY_S)
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,),
                name=f"http-conn-{self.port}", daemon=True,
            )
            with self._lock:
                self._conns[sock] = thread
            try:
                thread.start()
            except RuntimeError:  # can't start new thread
                with self._lock:
                    del self._conns[sock]
                sock.close()
                time.sleep(ACCEPT_RETRY_S)

    def _serve_connection(self, sock: socket.socket) -> None:
        buf = bytearray()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A recv or sendall that times out raises TimeoutError, an
            # OSError: the connection closes like one the client reset.
            sock.settimeout(IDLE_TIMEOUT_S)
            while True:
                with self._lock:
                    if self._stopping:
                        return
                    self._idle.add(sock)
                try:
                    request = self._read_request(sock, buf)
                except _FramingError as exc:
                    self._refuse(sock, exc)
                    return
                finally:
                    with self._lock:
                        self._idle.discard(sock)
                if request is None:
                    return
                method, path, body, keep_alive = request
                status, payload = self.app.handle_raw(method, path, body)
                close = not keep_alive or self.app.draining
                sock.sendall(_response_bytes(status, payload, close=close))
                if close:
                    return
        except OSError:
            pass  # reset or broken pipe: the client is gone
        finally:
            with self._lock:
                del self._conns[sock]
            sock.close()

    def _read_request(self, sock: socket.socket, buf: bytearray):
        """Read one request; ``buf`` carries bytes received past the
        previous one (pipelining).

        Returns ``(method, path, body, keep_alive)``, or ``None`` once the
        client has closed (between requests or mid-request).  Raises
        :class:`_FramingError` for a request the server answers itself.
        """
        while (end := buf.find(b"\r\n\r\n")) < 0:
            if len(buf) >= MAX_HEAD_BYTES:
                break
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                return None
            buf += chunk
        if end < 0 or end + 4 > MAX_HEAD_BYTES:
            raise _FramingError(
                431, f"request head exceeds {MAX_HEAD_BYTES} bytes"
            )
        try:
            lines = buf[:end].decode("ascii").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _FramingError(400, "malformed request line") from None
        del buf[:end + 4]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _FramingError(
                400, "Transfer-Encoding is not supported; send the body "
                     "with a Content-Length header"
            )
        length_text = headers.get("content-length", "0")
        if not length_text.isdigit():
            raise _FramingError(
                400, f"Content-Length must be a non-negative integer: "
                     f"{length_text!r}"
            )
        length = int(length_text)
        if length > self.max_body_bytes:
            raise _FramingError(
                413, f"request body exceeds {self.max_body_bytes} bytes"
            )
        while len(buf) < length:
            chunk = sock.recv(max(_RECV_BYTES, length - len(buf)))
            if not chunk:
                return None
            buf += chunk
        body = bytes(buf[:length])
        del buf[:length]
        keep_alive = (version.strip().upper() != "HTTP/1.0"
                      and headers.get("connection", "").lower() != "close")
        return method, target.split("?", 1)[0], body, keep_alive

    @staticmethod
    def _refuse(sock: socket.socket, error: _FramingError) -> None:
        """Answer a request that cannot be framed, then close in stages:
        half-close, and read what the client still sends until it closes
        or :data:`LINGER_S` passes.  Closing with unread bytes would send
        a reset, which can destroy the response before the client reads
        it (RFC 9112, section 9.6)."""
        payload = json.dumps(
            schemas.error_body(ValidationError(str(error)))
        ).encode()
        sock.sendall(_response_bytes(error.status, payload, close=True))
        sock.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + LINGER_S
        while (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            if not sock.recv(_RECV_BYTES):
                return


def _cut(socks) -> None:
    """Shut every socket in ``socks`` down both ways; on Linux this wakes
    a thread blocked in its ``recv`` or ``sendall``."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer already reset it


class ServerThread(HttpServer):
    """An :class:`HttpServer` as the CLI, tests and benches embed it:
    ``start()`` returns the running server and ``stop()`` drains it.

    >>> handle = ServerThread(app).start()   # binds a free port
    >>> handle.port                          # actual bound port
    >>> ...
    >>> handle.stop()                        # graceful drain
    """

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight work, close every
        connection (see :meth:`HttpServer.shutdown`)."""
        self.shutdown()


def run_server_in_thread(
    app: ServingApp, **server_kwargs: object
) -> ServerThread:
    """Start a server for ``app`` on its own threads; returns the handle."""
    return ServerThread(app, **server_kwargs).start()

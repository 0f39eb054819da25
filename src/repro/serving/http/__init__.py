"""Network-grade HTTP/JSON front end over :class:`HashingService`.

Three layers, stdlib-only:

- :mod:`~repro.serving.http.schemas` — the validation boundary: typed
  request parsing and the exception-class → HTTP-status map.
- :mod:`~repro.serving.http.app` — :class:`ServingApp`: endpoint
  handlers, bounded admission, per-endpoint latency histograms, and
  zero-drop hot swap between service generations.
- :mod:`~repro.serving.http.server` — :class:`HttpServer`: the blocking
  socket layer, one thread per connection, each calling the app inline,
  so concurrent connections feed one shared
  :class:`~repro.serving.batcher.EncodeBatcher`; plus
  :class:`ServerThread` for embedding a running server in tests, the
  bench harness, and the CLI.

CLI entry point: ``python -m repro.cli serve-http``; the gated scale
smoke is ``benchmarks/bench_http_scale.py``.
"""

from repro.serving.http.app import ServingApp
from repro.serving.http.server import (
    HttpServer,
    ServerThread,
    run_server_in_thread,
)

__all__ = [
    "HttpServer",
    "ServerThread",
    "ServingApp",
    "run_server_in_thread",
]

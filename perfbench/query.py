"""query-single: the serve-http daemon under a closed loop.

The daemon is the production ``python -m repro.cli serve-http`` process
(cifar10 at scale 0.35, 64 bits, 5 training epochs, CLI serving defaults).
The client sends one query image per request over one keep-alive
socket and keeps the raw response bytes, so it does no JSON work while
timing.  One connection, because two let the daemon run two network
forwards at once: each forward switches the network's shared BatchNorm
mode off and back on, so an overlapping forward can run in training mode
and corrupt the running statistics.  On a 2-vCPU host under 8% CPU steal,
699 of 4974 responses over two connections differed from the oracle.
After the window every response is checked bit-exactly against an
in-process ``HashingService`` over the same model and database.

Traced runs launch the daemon through ``daemon.py`` instead, which
installs the benchmark's wrappers in the daemon process; SIGUSR1 toggles
its recording between alternating untraced and traced blocks of the
window.
"""

from __future__ import annotations

import json
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import report

DATASET = "cifar10"
SCALE = 0.35
BITS = 64
EPOCHS = 5
TOP_K = 10
#: Requests before the window (part of ``setup_s``).
WARMUP = 120
#: Daemon starts per measured run; ``setup_s`` is their median.
SETUPS = 3
#: How long a daemon may take to train, load and print its port.
READY_TIMEOUT_S = 120.0
#: ``tail_ms`` is the p95 latency, and a run needs 10 requests beyond it.
#: Not the p99: over ten seeds on a shared 2-vCPU host the p99's
#: interquartile range reached 0.25 of its median, the p95's 0.11.
TAIL_PERCENTILE = 95.0
MIN_BEYOND = 10
#: Traced runs toggle the daemon's recording every block, and give it
#: this long to take the signal before the next block starts.
TRACE_BLOCK_S = 1.0
SIGNAL_SETTLE_S = 0.05
#: Offset keeping daemon span ids apart from client span ids.
SERVER_IDS = 10**9


@dataclass(frozen=True)
class Request:
    row: int     # the query-split row this request carries
    wire: bytes  # the full HTTP request
    crc: int     # CRC-32 of its body


def daemon_args(seed: int) -> list[str]:
    return ["serve-http", "--dataset", DATASET, "--scale", str(SCALE),
            "--bits", str(BITS), "--epochs", str(EPOCHS),
            "--seed", str(seed), "--port", "0"]


class Daemon:
    """One serve-http process; stdout is drained by a reader thread."""

    def __init__(self, root: Path, env: dict, seed: int,
                 trace_out: Path | None = None) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *daemon_args(seed)]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "daemon.py"),
                   str(trace_out), *daemon_args(seed)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.log: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def wait_ready(self) -> int:
        """Block until the daemon prints its port; returns it."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("daemon not ready in time:\n"
                                   + "".join(self.log)) from None
            if line is None:
                raise RuntimeError("daemon exited before serving:\n"
                                   + "".join(self.log))
            self.log.append(line)
            match = re.search(r"serving on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process and reader."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=30)
        self.proc.stdout.close()


class Connection:
    """A keep-alive HTTP/1.1 client socket returning raw response bytes."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def roundtrip(self, wire: bytes) -> tuple[int, bytes]:
        self.sock.sendall(wire)
        buf = self._buf
        while (head_end := buf.find(b"\r\n\r\n")) < 0:
            buf += self._recv()
        head = buf[:head_end]
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        end = head_end + 4 + length
        while len(buf) < end:
            buf += self._recv()
        self._buf = buf[end:]
        return int(head[9:12]), buf[head_end + 4:end]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


def http_post(body: bytes) -> bytes:
    return (b"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def plan_requests(images: np.ndarray, seed: int) -> list[Request]:
    """One request per query-split row, in a seeded order."""
    order = np.random.default_rng(seed).permutation(images.shape[0])
    requests = []
    for row in order:
        body = json.dumps({"vector": images[row].tolist(),
                           "top_k": TOP_K}).encode()
        requests.append(Request(int(row), http_post(body), zlib.crc32(body)))
    return requests


def closed_loop(conn: Connection, plan: list[Request], *,
                seconds: float | None = None,
                count: int | None = None) -> list[tuple]:
    """Send the next request of ``plan`` when the last one returns, for
    ``seconds`` or ``count`` requests.

    Returns ``(request, start, end, status, body)`` per completed request.
    """
    deadline = (time.perf_counter() + seconds if seconds is not None
                else float("inf"))
    out = []
    while count is None or len(out) < count:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        request = plan[len(out) % len(plan)]
        status, body = conn.roundtrip(request.wire)
        out.append((request, t0, time.perf_counter(), status, body))
    return out


def get_json(conn: Connection, path: str) -> dict:
    status, body = conn.roundtrip(
        b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" % path.encode())
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def check_response(status: int, body: bytes, ids: np.ndarray,
                   distances: np.ndarray) -> bool:
    """Whether one response is a 200 carrying exactly these ids and
    distances (float64 values survive the JSON round trip bit-exactly)."""
    if status != 200:
        return False
    try:
        answer = json.loads(body)
        got_ids = np.asarray(answer["ids"], dtype=np.int64)
        got_dist = np.asarray(answer["distances"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return False
    return (answer.get("degraded") is False
            and got_ids.shape == ids.shape and got_dist.shape == ids.shape
            and bool((got_ids == ids).all())
            and got_dist.tobytes() == distances.tobytes())


def build_oracle(data, seed: int):
    """The daemon's model and index, rebuilt in process the way the CLI
    builds them (same config, seed and training path, serving defaults)."""
    from dataclasses import replace

    from repro.config import paper_config
    from repro.core.uhscm import UHSCM
    from repro.pipeline import dataset_key
    from repro.serving import HashingService
    from repro.vlp import SimCLIP

    config = paper_config(DATASET, n_bits=BITS, seed=seed)
    config = replace(config, train=replace(config.train, epochs=EPOCHS))
    model = UHSCM(config, clip=SimCLIP(data.world))
    model.fit(data.train_images)
    service = HashingService(model)
    service.load_database(
        data.database_images,
        key=dataset_key(DATASET, SCALE, seed, split="database"))
    return service


def link_trace(client_spans, server_spans) -> tuple[list, dict]:
    """Join each client request span to the daemon's ``handle_raw`` span
    for it (same body CRC, inside the client's interval).

    Returns the merged span list, with every matched daemon tree re-rooted
    under its client span, and ``{client span id: latency}`` for the
    matched requests.
    """
    by_crc: dict[int, list] = {}
    for span in server_spans:
        if span[1] == 0 and span[3] == "http.codec":
            by_crc.setdefault(span[6], []).append(span)
    owner: dict[int, int] = {}
    roots: dict[int, float] = {}
    for cid, _p, _r, _n, t0, t1, crc in client_spans:
        for span in by_crc.get(crc, ()):
            if t0 <= span[4] and span[5] <= t1 and span[0] not in owner:
                owner[span[0]] = cid
                roots[cid] = t1 - t0
                break
    merged = [span for span in client_spans if span[0] in roots]
    for sid, parent, rid, name, start, end, tag in server_spans:
        if rid in owner:
            merged.append((SERVER_IDS + sid,
                           SERVER_IDS + parent if parent else owner[rid],
                           owner[rid], name, start, end, tag))
    return merged, roots


def run(seed: int, seconds: float, trace: bool, root: Path, env: dict,
        out_dir: Path) -> dict:
    from repro.datasets import load_dataset
    from repro.retrieval import relevance_matrix
    from repro.retrieval.metrics import average_precision

    data = load_dataset(DATASET, scale=SCALE, seed=seed)
    plan = plan_requests(data.query_images, seed)
    trace_out = out_dir / f"daemon-spans-query-single-{seed}.json"
    n_setups = 1 if trace else SETUPS
    setups: list[float] = []
    for attempt in range(n_setups):
        start = time.perf_counter()
        daemon = Daemon(root, env, seed, trace_out if trace else None)
        conn = None
        try:
            conn = Connection(daemon.wait_ready())
            closed_loop(conn, plan, count=WARMUP)
            setups.append(time.perf_counter() - start)
        except BaseException:
            if conn is not None:
                conn.close()
            daemon.stop()
            raise
        if attempt < n_setups - 1:
            conn.close()
            daemon.stop()

    baseline: list[tuple] = []
    try:
        if trace:
            # Alternate untraced and traced blocks, so slow spells of the
            # machine fall on both sides of the overhead comparison.
            window = []
            for block in range(max(2, round(seconds / TRACE_BLOCK_S))):
                results = closed_loop(conn, plan, seconds=TRACE_BLOCK_S)
                (window if block % 2 else baseline).extend(results)
                daemon.proc.send_signal(signal.SIGUSR1)
                time.sleep(SIGNAL_SETTLE_S)
        else:
            window = closed_loop(conn, plan, seconds=seconds)
        served_key = get_json(conn, "/stats")["model_key"]
        peak_rss = daemon.peak_rss_mb()
    finally:
        conn.close()
        daemon.stop()

    oracle = build_oracle(data, seed)
    ids, distances = oracle.query(data.query_images, top_k=TOP_K)
    failed = sum(
        not check_response(status, body, ids[req.row:req.row + 1],
                           distances[req.row:req.row + 1])
        for req, _t0, _t1, status, body in baseline + window
    )
    checks = {"model_key matches the in-process oracle":
              served_key == oracle.model_key}
    oracle.close()
    relevant = relevance_matrix(data.query_labels, data.database_labels)
    ap = [average_precision(row, TOP_K)
          for row in np.take_along_axis(relevant, ids, axis=1)]
    latencies = [t1 - t0 for _req, t0, t1, _s, _b in window]
    elapsed = (max(t1 for _r, _t0, t1, _s, _b in window)
               - min(t0 for _r, t0, _t1, _s, _b in window))

    if trace:
        client_spans = [(i + 1, 0, i + 1, "http.transport", t0, t1, req.crc)
                        for i, (req, t0, t1, _s, _b) in enumerate(window)]
        server = json.loads(trace_out.read_text())
        trace_out.unlink()
        spans, roots = link_trace(client_spans, server["spans"])
        checks["every traced request matched its daemon span"] = (
            len(roots) == len(window))
        overhead = 100.0 * (np.mean(latencies) / np.mean(
            [t1 - t0 for _r, t0, t1, _s, _b in baseline]) - 1.0)
        table = report.layer_table(spans, roots, "http.transport")
        metrics = report.per_layer_metrics(
            table, len(roots), sum(roots.values()), overhead, 0.0)
    else:
        checks[f"p{TAIL_PERCENTILE:g} has >= {MIN_BEYOND} samples beyond"] = (
            report.beyond(len(latencies), TAIL_PERCENTILE) >= MIN_BEYOND)
        metrics = {
            "ops_per_s": (len(window) / elapsed, "1/s"),
            "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "tail_ms": (report.percentile(latencies, TAIL_PERCENTILE) * 1e3,
                        "ms"),
            "map": (float(np.mean([ap[req.row] for req, *_ in window])),
                    "mAP"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    return {
        "metrics": metrics,
        "attempted": len(baseline) + len(window),
        "failed": failed,
        "checks": checks,
        "notes": {"latency_ms_deciles": [
                      round(q * 1e3, 3)
                      for q in statistics.quantiles(latencies, n=10)],
                  "setups_s": setups},
    }

"""Tests for the HTTP serving front end and the concurrent batcher.

Covers the three layers of :mod:`repro.serving.http` — the schema
validation boundary, the :class:`ServingApp` handlers (admission, hot
swap, metrics, drain), and the thread-per-connection socket server —
plus the thread-safety stress test for the shared :class:`EncodeBatcher`
the concurrent handlers feed.
"""

import itertools
import json
import logging
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.hashing_network import HashingNetwork
from repro.nn import BatchNorm1d, Linear, ReLU, Sequential, Tanh
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NotFittedError,
    OverloadedError,
    ReproError,
    ShapeError,
    ShutdownError,
    ValidationError,
)
from repro.serving import EncodeBatcher, HashingService
from repro.serving.http import ServingApp, run_server_in_thread
from repro.serving.http import schemas
from repro.serving.http import server as http_server
from repro.serving.http.server import MAX_HEAD_BYTES

DIM, BITS = 8, 16


def identity_network(bits=BITS, dim=DIM, rng=0):
    return HashingNetwork(bits, mode="feature", feature_extractor=lambda x: x,
                          feature_dim=dim, rng=rng)


def make_service(**kwargs):
    kwargs.setdefault("max_batch", 64)
    service = HashingService(identity_network(), **kwargs)
    service.add(np.random.default_rng(7).standard_normal((40, DIM)))
    return service


def post(port, path, payload):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def get(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestSchemas:
    def test_parse_query_single_vector(self):
        req = schemas.parse_query({"vector": [1.0] * DIM})
        assert req.vectors.shape == (1, DIM)
        assert req.top_k == 10 and req.deadline_s is None

    def test_parse_query_batch(self):
        req = schemas.parse_query(
            {"vectors": [[1.0] * DIM] * 3, "top_k": 5, "deadline_s": 2.5}
        )
        assert req.vectors.shape == (3, DIM)
        assert req.top_k == 5 and req.deadline_s == 2.5

    def test_parse_query_image_tensors(self):
        one = schemas.parse_query({"vector": np.zeros((3, 4, 4)).tolist()})
        assert one.vectors.shape == (1, 3, 4, 4)
        batch = schemas.parse_query(
            {"vectors": np.zeros((2, 3, 4, 4)).tolist()}
        )
        assert batch.vectors.shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("payload", [
        {},                                             # neither field
        {"vector": [1.0], "vectors": [[1.0]]},          # both fields
        {"vector": [[1.0], [2.0]]},                     # batch in "vector"
        {"vectors": [[1.0]], "nope": 1},                # unknown field
        {"vectors": "text"},                            # not numeric
        {"vectors": [[1.0, float("nan")]]},             # non-finite
        {"vectors": [[1.0, 2.0], [3.0]]},               # ragged
        {"vectors": []},                                # empty
        {"vectors": [[1.0]], "top_k": 0},               # bad top_k
        {"vectors": [[1.0]], "top_k": 1.5},             # non-int top_k
        {"vectors": [[1.0]], "deadline_s": -1},         # bad deadline
        [1, 2, 3],                                      # not an object
        {"vector": ["1.5", "2", "3"]},                  # numeric strings
        {"vector": [True, False, True]},                # booleans
    ])
    def test_parse_query_rejects(self, payload):
        with pytest.raises(ValidationError):
            schemas.parse_query(payload)

    def test_parse_query_row_limits(self):
        too_many = [[1.0]] * (schemas.MAX_ROWS + 1)
        with pytest.raises(ValidationError):
            schemas.parse_query({"vectors": too_many})

    def test_parse_add(self):
        req = schemas.parse_add(
            {"vectors": [[1.0] * DIM] * 2, "ids": [5, 9]}
        )
        assert req.vectors.shape == (2, DIM)
        assert req.ids.tolist() == [5, 9]
        assert schemas.parse_add({"vectors": [[1.0]]}).ids is None
        with pytest.raises(ValidationError):
            schemas.parse_add({"vectors": [[1.0]], "ids": [1, 2]})
        with pytest.raises(ValidationError):
            schemas.parse_add({"ids": [1]})

    def test_parse_remove_and_swap(self):
        assert schemas.parse_remove({"ids": [3]}).ids.tolist() == [3]
        with pytest.raises(ValidationError):
            schemas.parse_remove({})
        with pytest.raises(ValidationError):
            schemas.parse_remove({"ids": []})
        assert schemas.parse_swap({"model": " abc "}).model == "abc"
        with pytest.raises(ValidationError):
            schemas.parse_swap({"model": ""})
        with pytest.raises(ValidationError):
            schemas.parse_swap({})

    @pytest.mark.parametrize("exc,status", [
        (ValidationError("x"), 400),
        (ShapeError("x"), 400),
        (ConfigurationError("x"), 400),
        (NotFittedError("x"), 409),
        (OverloadedError("x"), 429),
        (ShutdownError("x"), 503),
        (DeadlineExceededError("x"), 504),
        (ReproError("x"), 500),
        (KeyError("x"), 500),
    ])
    def test_status_map(self, exc, status):
        assert schemas.status_for(exc) == status
        body = schemas.error_body(exc)
        assert body["error"]["type"] == type(exc).__name__

    def test_jsonable_handles_numpy(self):
        out = schemas.jsonable({
            "a": np.int64(3), "b": np.float64(0.5),
            "c": np.arange(2), "d": [np.bool_(True)], "e": (1, 2),
        })
        assert json.loads(json.dumps(out)) == {
            "a": 3, "b": 0.5, "c": [0, 1], "d": [True], "e": [1, 2],
        }


class TestServingApp:
    def test_query_matches_direct_service(self):
        service = make_service()
        app = ServingApp(service)
        queries = np.random.default_rng(1).standard_normal((3, DIM))
        status, body = app.handle(
            "POST", "/query", {"vectors": queries.tolist(), "top_k": 4}
        )
        assert status == 200
        ids, dist = service.query(queries, top_k=4)
        assert body["ids"] == ids.tolist()
        assert body["distances"] == dist.tolist()
        assert body["degraded"] is False
        service.close()

    def test_add_remove_roundtrip(self):
        app = ServingApp(make_service())
        rows = np.random.default_rng(2).standard_normal((2, DIM))
        status, body = app.handle(
            "POST", "/add", {"vectors": rows.tolist(), "ids": [100, 101]}
        )
        assert (status, body["ids"]) == (200, [100, 101])
        status, body = app.handle("POST", "/remove", {"ids": [100, 101, 7777]})
        assert (status, body["removed"]) == (200, 2)
        app.close()

    def test_unknown_route_404(self):
        app = ServingApp(make_service())
        status, body = app.handle("POST", "/nope", {})
        assert (status, body["error"]["type"]) == (404, "NotFound")
        status, _ = app.handle("PUT", "/query", {})
        assert status == 404
        app.close()

    def test_validation_maps_to_400(self):
        app = ServingApp(make_service())
        status, body = app.handle("POST", "/query", {"vectors": "zzz"})
        assert (status, body["error"]["type"]) == (400, "ValidationError")
        app.close()

    def test_remove_rejects_float_ids(self):
        service = make_service()
        app = ServingApp(service)
        status, body = app.handle("POST", "/remove", {"ids": [1.7]})
        assert (status, body["error"]["type"]) == (400, "ValidationError")
        assert len(service) == 40  # id 1 was not removed
        app.close()

    def test_failing_shard_is_a_500_and_the_next_query_answers(self, caplog):
        service = make_service(n_shards=2)
        app = ServingApp(service)
        payload = {"vector": [0.5] * DIM, "top_k": 5}

        def explode(codes, top_k):
            raise RuntimeError("shard search bug")

        service.index.shards[0].search = explode
        with caplog.at_level(logging.ERROR, logger="repro.serving.http.app"):
            status, body = app.handle("POST", "/query", payload)
            assert (status, body["error"]["type"]) == (500, "RuntimeError")
            [record] = caplog.records
            assert record.levelno == logging.ERROR
            assert record.name == "repro.serving.http.app"
            assert "POST /query" in record.getMessage()
            assert isinstance(record.exc_info[1], RuntimeError)
            caplog.clear()
            del service.index.shards[0].search
            status, body = app.handle("POST", "/query", payload)
            assert caplog.records == []
        assert status == 200 and body["degraded"] is False
        ids, dist = service.query(np.full(DIM, 0.5), top_k=5)
        assert body["ids"] == ids.tolist()
        assert body["distances"] == dist.tolist()
        assert app.handle("GET", "/health", None)[1]["status"] == "ok"
        app.close()

    def test_handle_raw_bad_json(self):
        app = ServingApp(make_service())
        status, raw = app.handle_raw("POST", "/query", b"{nope")
        assert status == 400
        assert json.loads(raw)["error"]["type"] == "ValidationError"
        app.close()

    def test_admission_sheds_past_max_inflight(self):
        release = threading.Event()
        entered = threading.Event()
        net = identity_network()

        def slow_encode(matrix):
            entered.set()
            assert release.wait(10)
            return net.encode(matrix)

        service = HashingService(slow_encode, n_bits=BITS, max_batch=64)
        release.set()  # let the database load through
        service.add(np.random.default_rng(7).standard_normal((10, DIM)))
        release.clear()
        entered.clear()
        app = ServingApp(service, max_inflight=1)
        row = [0.5] * DIM
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                app.handle("POST", "/query", {"vector": row})
            )
        )
        worker.start()
        assert entered.wait(10)
        # The slot is taken: the next request sheds at the gate.
        status, body = app.handle("POST", "/query", {"vector": row})
        assert (status, body["error"]["type"]) == (429, "OverloadedError")
        assert app.inflight == 1
        # Observability endpoints bypass the gate.
        assert app.handle("GET", "/health", None)[0] == 200
        status, stats = app.handle("GET", "/stats", None)
        assert stats["server"]["shed"] == 1
        release.set()
        worker.join(10)
        assert results[0][0] == 200
        assert app.inflight == 0
        app.close()

    def test_shed_request_body_is_not_decoded(self):
        encode, entered, release = gated_encoder(identity_network())
        service = HashingService(encode, n_bits=BITS, max_batch=64)
        release.set()
        service.add(np.random.default_rng(7).standard_normal((10, DIM)))
        release.clear()
        entered.clear()
        app = ServingApp(service, max_inflight=1)
        body = json.dumps({"vector": [0.5] * DIM}).encode()
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                app.handle_raw("POST", "/query", body)
            )
        )
        worker.start()
        assert entered.wait(10)
        # The gate is full, so the body is never decoded: a 429, where
        # decoding it would have answered 400.
        status, raw = app.handle_raw("POST", "/query", b"{nope")
        assert (status, json.loads(raw)["error"]["type"]) == (
            429, "OverloadedError")
        release.set()
        worker.join(10)
        assert results[0][0] == 200
        assert app.handle_raw("POST", "/query", b"{nope")[0] == 400
        server = app.handle("GET", "/stats", None)[1]["server"]
        assert server["shed"] == 1 and server["inflight"] == 0
        assert server["responses"] == {"200": 1, "400": 1, "429": 1}
        assert server["latency"]["query"]["count"] == 3
        app.close()

    def test_draining_rejects_with_503(self):
        app = ServingApp(make_service())
        app.begin_drain()
        status, body = app.handle("POST", "/query", {"vector": [1.0] * DIM})
        assert (status, body["error"]["type"]) == (503, "ShutdownError")
        status, body = app.handle("GET", "/health", None)
        assert status == 200 and body["status"] == "draining"
        app.close()

    def test_close_retires_service(self):
        service = make_service()
        app = ServingApp(service)
        app.close()
        assert service.closed
        # The underlying service now refuses work with the typed error.
        status, body = app.handle("POST", "/query", {"vector": [1.0] * DIM})
        assert (status, body["error"]["type"]) == (503, "ShutdownError")

    def test_stats_reports_latency_and_counters(self):
        app = ServingApp(make_service())
        for _ in range(3):
            app.handle("POST", "/query", {"vector": [1.0] * DIM})
        app.handle("POST", "/query", {"vectors": "bad"})
        status, body = app.handle("GET", "/stats", None)
        assert status == 200
        server = body["server"]
        assert server["requests"] == 4
        assert server["responses"] == {"200": 3, "400": 1}
        query_latency = server["latency"]["query"]
        assert query_latency["count"] == 4
        assert 0 <= query_latency["p50_s"] <= query_latency["p99_s"]
        # The service's own per-stage histograms ride along.
        assert body["service"]["latency"]["total"]["count"] == 3
        app.close()

    def test_swap_without_factory_rejected(self):
        app = ServingApp(make_service())
        status, body = app.handle("POST", "/swap", {"model": "abc"})
        assert (status, body["error"]["type"]) == (400, "ConfigurationError")
        app.close()

    def test_swap_replaces_service_and_closes_old(self):
        old = make_service()
        new = make_service()
        app = ServingApp(old, service_factory=lambda source: new)
        status, body = app.handle("POST", "/swap", {"model": "v2"})
        assert status == 200 and body["swapped"] is True
        assert app.service is new
        assert old.closed and not new.closed
        status, _ = app.handle("POST", "/query", {"vector": [1.0] * DIM})
        assert status == 200
        app.close()

    def test_swap_failure_keeps_old_service(self):
        old = make_service()

        def broken_factory(source):
            raise ConfigurationError(f"no snapshot {source}")

        app = ServingApp(old, service_factory=broken_factory)
        status, body = app.handle("POST", "/swap", {"model": "ghost"})
        assert (status, body["error"]["type"]) == (400, "ConfigurationError")
        assert app.service is old and not old.closed
        assert app.handle("POST", "/query", {"vector": [1.0] * DIM})[0] == 200
        app.close()

    def test_swap_drops_zero_inflight_requests(self):
        release = threading.Event()
        entered = threading.Event()
        net = identity_network()

        def gate_encode(matrix):
            entered.set()
            assert release.wait(10)
            return net.encode(matrix)

        old = HashingService(gate_encode, n_bits=BITS, max_batch=64)
        release.set()
        db = np.random.default_rng(7).standard_normal((10, DIM))
        old.add(db)
        release.clear()
        entered.clear()
        new = make_service()
        app = ServingApp(old, service_factory=lambda source: new,
                         max_inflight=4)
        results = []
        query = {"vector": [0.5] * DIM, "top_k": 3}
        worker = threading.Thread(
            target=lambda: results.append(app.handle("POST", "/query", query))
        )
        worker.start()
        assert entered.wait(10)  # pinned to the OLD generation mid-encode
        status, _ = app.handle("POST", "/swap", {"model": "v2"})
        assert status == 200
        # The old generation still has a rider: it must not close yet.
        assert not old.closed
        release.set()
        worker.join(10)
        status, body = results[0]
        assert status == 200  # the in-flight request completed on v1
        release.set()
        deadline = time.monotonic() + 5
        while not old.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert old.closed  # retired once its last rider drained
        assert app.handle("POST", "/query", query)[0] == 200  # v2 serves
        app.close()


class TestHttpServer:
    def test_end_to_end_bit_identical(self):
        service = make_service()
        app = ServingApp(service)
        handle = run_server_in_thread(app)
        try:
            queries = np.random.default_rng(3).standard_normal((4, DIM))
            status, body = post(handle.port, "/query",
                                {"vectors": queries.tolist(), "top_k": 5})
            assert status == 200
            ids, dist = service.query(queries, top_k=5)
            assert body["ids"] == ids.tolist()
            # float64 distances survive JSON bit-exactly (repr round trip).
            assert body["distances"] == dist.tolist()
        finally:
            handle.stop()

    def test_error_statuses_over_the_wire(self):
        app = ServingApp(make_service())
        handle = run_server_in_thread(app)
        try:
            assert post(handle.port, "/query", {"vectors": "zzz"})[0] == 400
            assert post(handle.port, "/missing", {})[0] == 404
            assert get(handle.port, "/health")[1]["status"] == "ok"
        finally:
            handle.stop()

    def test_keep_alive_two_requests_one_connection(self):
        app = ServingApp(make_service())
        handle = run_server_in_thread(app)
        try:
            body = json.dumps({"vector": [1.0] * DIM}).encode()
            request = (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(request)
                first = _read_response(conn)
                conn.sendall(request)
                second = _read_response(conn)
            assert first[0] == 200 and second[0] == 200
            assert first[1] == second[1]
        finally:
            handle.stop()

    def test_malformed_request_line_400(self):
        app = ServingApp(make_service())
        handle = run_server_in_thread(app)
        try:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(b"BOGUS\r\n\r\n")
                status, _ = _read_response(conn)
            assert status == 400
        finally:
            handle.stop()

    def test_oversized_body_413(self):
        app = ServingApp(make_service())
        handle = run_server_in_thread(app, max_body_bytes=64)
        try:
            big = json.dumps({"vector": [1.0] * 512}).encode()
            request = (
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(big), big)
            )
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(request)
                status, _ = _read_response(conn)
            assert status == 413
        finally:
            handle.stop()

    def test_graceful_shutdown_completes_inflight(self):
        release = threading.Event()
        entered = threading.Event()
        net = identity_network()

        def gate_encode(matrix):
            entered.set()
            assert release.wait(10)
            return net.encode(matrix)

        service = HashingService(gate_encode, n_bits=BITS, n_shards=2,
                                 workers=2, max_batch=64)
        release.set()
        service.add(np.random.default_rng(7).standard_normal((10, DIM)))
        release.clear()
        entered.clear()
        app = ServingApp(service)
        handle = run_server_in_thread(app)
        port = handle.port
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                post(port, "/query", {"vector": [0.5] * DIM})
            )
        )
        worker.start()
        assert entered.wait(10)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.05)  # let the drain begin
        release.set()
        worker.join(30)
        stopper.join(30)
        # The in-flight request completed despite the shutdown racing it.
        assert results and results[0][0] == 200
        # New connections are refused once the listener closed.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1)
        # Drain left everything balanced and closed.
        assert service.closed
        pool = service.index.pool_stats()
        assert pool["submitted"] == pool["completed"]

    def test_rejects_new_work_while_draining(self):
        service = make_service()
        app = ServingApp(service)
        handle = run_server_in_thread(app)
        try:
            app.begin_drain()
            status, body = post(handle.port, "/query",
                                {"vector": [1.0] * DIM})
            assert (status, body["error"]["type"]) == (503, "ShutdownError")
        finally:
            handle.stop()

    def test_pipelined_requests_answered_in_order(self):
        service = make_service()
        handle = run_server_in_thread(ServingApp(service))
        try:
            queries = np.random.default_rng(4).standard_normal((2, DIM))
            first = _post_bytes("/query", {"vector": queries[0].tolist(),
                                           "top_k": 3})
            second = _post_bytes("/query", {"vector": queries[1].tolist(),
                                            "top_k": 4}, close=True)
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(first + second)
                responses = _read_responses_until_eof(conn)
            assert [status for status, _ in responses] == [200, 200]
            for (_, body), row, top_k in zip(responses, queries, (3, 4)):
                ids, dist = service.query(row, top_k=top_k)
                assert json.loads(body)["ids"] == ids.tolist()
                assert json.loads(body)["distances"] == dist.tolist()
        finally:
            handle.stop()

    def test_oversized_head_431_then_close(self):
        handle = run_server_in_thread(ServingApp(make_service()))
        try:
            head = (b"GET /health HTTP/1.1\r\nX-Pad: "
                    + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n")
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(head)
                responses = _read_responses_until_eof(conn)
            assert [status for status, _ in responses] == [431]
        finally:
            handle.stop()

    def test_chunked_request_one_400_then_close(self):
        handle = run_server_in_thread(ServingApp(make_service()))
        try:
            body = json.dumps({"vector": [1.0] * DIM}).encode()
            request = (b"POST /query HTTP/1.1\r\nHost: x\r\n"
                       b"Transfer-Encoding: chunked\r\n\r\n"
                       b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(request)
                responses = _read_responses_until_eof(conn)
            assert [status for status, _ in responses] == [400]
            error = json.loads(responses[0][1])["error"]
            assert error["type"] == "ValidationError"
            assert "Content-Length" in error["message"]
        finally:
            handle.stop()

    def test_disconnect_mid_body_leaves_no_connection_thread(self):
        handle = run_server_in_thread(ServingApp(make_service()))
        name = f"http-conn-{handle.port}"

        def connection_threads():
            return [t for t in threading.enumerate() if t.name == name]

        try:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as conn:
                conn.sendall(_post_bytes("/query", {"vector": [1.0] * DIM}))
                assert _read_response(conn)[0] == 200
                assert len(connection_threads()) == 1
                conn.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 1000\r\n\r\n{\"vector\"")
            assert wait_until(lambda: not connection_threads())
        finally:
            handle.stop()

    def test_quiet_connections_time_out_and_free_their_threads(
            self, monkeypatch):
        monkeypatch.setattr(http_server, "IDLE_TIMEOUT_S", 0.2)
        handle = run_server_in_thread(ServingApp(make_service()))
        name = f"http-conn-{handle.port}"

        def connection_threads():
            return [t for t in threading.enumerate() if t.name == name]

        try:
            stalled = socket.create_connection(
                ("127.0.0.1", handle.port), timeout=5)
            idle = socket.create_connection(
                ("127.0.0.1", handle.port), timeout=5)
            with stalled, idle:
                # A partial request head, then silence.
                stalled.sendall(b"POST /query HTTP/1.1\r\nHost: x\r\n")
                # A full request on a keep-alive connection, then silence.
                idle.sendall(_post_bytes("/query", {"vector": [1.0] * DIM}))
                assert _read_response(idle)[0] == 200
                assert stalled.recv(1) == b""  # EOF, not a hang or a reset
                assert idle.recv(1) == b""
                assert wait_until(lambda: not connection_threads())
            # The server still serves the next client.
            assert post(handle.port, "/query",
                        {"vector": [1.0] * DIM})[0] == 200
        finally:
            handle.stop()

    def test_stop_closes_idle_keep_alive_connection_promptly(self):
        handle = run_server_in_thread(ServingApp(make_service()))
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        ) as conn:
            conn.sendall(_post_bytes("/query", {"vector": [1.0] * DIM}))
            assert _read_response(conn)[0] == 200
            start = time.monotonic()
            handle.stop()
            assert time.monotonic() - start < 1.0
            assert conn.recv(1) == b""  # EOF, not a hang or a reset

    def test_failed_connection_thread_start_drops_only_that_connection(
            self, monkeypatch):
        service = make_service()
        handle = run_server_in_thread(ServingApp(service))
        name = f"http-conn-{handle.port}"
        start = threading.Thread.start
        refused = []

        def start_or_fail_once(thread):
            if thread.name == name and not refused:
                refused.append(thread)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_or_fail_once)
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        ) as conn:
            assert conn.recv(1) == b""  # closed unanswered
        assert len(refused) == 1
        # The accept loop survived: the next connection is served.
        assert post(handle.port, "/query", {"vector": [1.0] * DIM})[0] == 200
        stopper = threading.Thread(target=handle.stop, daemon=True)
        stopper.start()
        stopper.join(10)
        assert not stopper.is_alive() and service.closed

    def test_stop_cuts_a_client_that_never_reads_after_the_drain(
            self, monkeypatch):
        monkeypatch.setattr(http_server, "DRAIN_TIMEOUT_S", 0.2)
        service = make_service()
        app = ServingApp(service)
        answered = threading.Event()
        large = b"0" * (16 << 20)  # more than both socket buffers hold

        def handle_raw(method, path, body):
            answered.set()
            return 200, large

        app.handle_raw = handle_raw
        handle = run_server_in_thread(app)
        conn = socket.socket()
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        with conn:
            conn.connect(("127.0.0.1", handle.port))
            conn.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert answered.wait(10)
            began = time.monotonic()
            stopper = threading.Thread(target=handle.stop, daemon=True)
            stopper.start()
            stopper.join(10)
            assert not stopper.is_alive()
            # It waited the drain out for the write, then cut it.
            assert time.monotonic() - began >= 0.2
            assert service.closed
            assert wait_until(lambda: not any(
                t.name == f"http-conn-{handle.port}"
                for t in threading.enumerate()))


def _post_bytes(path: str, payload: dict, *, close: bool = False) -> bytes:
    """One raw HTTP/1.1 POST carrying ``payload`` as JSON."""
    body = json.dumps(payload).encode()
    connection = b"Connection: close\r\n" if close else b""
    return (b"POST %s HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n"
            % (path.encode(), connection, len(body))) + body


def _read_responses_until_eof(conn: socket.socket):
    """Every ``(status, body)`` the server sent before closing."""
    data = b""
    while chunk := conn.recv(65536):
        data += chunk
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        length = next(int(line.split(":", 1)[1]) for line in lines
                      if line.lower().startswith("content-length:"))
        responses.append((int(lines[0].split(" ")[1]), rest[:length]))
        data = rest[length:]
    return responses


def _read_response(conn: socket.socket):
    """Minimal HTTP response reader for the raw-socket tests."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-head: {data!r}")
        data += chunk
    head, body = data.split(b"\r\n\r\n", 1)
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            break
        body += chunk
    return status, body


def gated_encoder(net):
    """``net.encode`` held open until ``release`` is set; ``entered`` is
    set as each forward starts."""
    entered, release = threading.Event(), threading.Event()

    def encode(matrix):
        entered.set()
        assert release.wait(10)
        return net.encode(matrix)

    return encode, entered, release


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def run_threads(threads, timeout_s=60.0):
    """Start and join ``threads`` with a short switch interval, so the
    interpreter interleaves them as often as it can."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout_s)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)  # no hangs


class TestBatcherThreadSafety:
    """The shared group-commit batcher under genuinely concurrent load."""

    def test_stress_no_lost_duplicated_or_hung_tickets(self):
        net = identity_network()
        guard = threading.Lock()
        inflight = [0, 0]  # forwards running now, most ever at once

        def encode(matrix):
            with guard:
                inflight[0] += 1
                inflight[1] = max(inflight)
            try:
                return net.encode(matrix)
            finally:
                with guard:
                    inflight[0] -= 1

        batcher = EncodeBatcher(encode, max_batch=16)
        n_threads, per_thread = 8, 40
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((n_threads, per_thread, DIM))
        expected = net.encode(rows.reshape(-1, DIM))
        results = np.zeros((n_threads, per_thread, BITS))
        errors = []

        def client(t):
            try:
                for i in range(per_thread):
                    results[t, i] = batcher.submit(rows[t, i]).result()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        run_threads([threading.Thread(target=client, args=(t,))
                     for t in range(n_threads)])
        assert not errors
        assert inflight[1] == 1  # group commit: forwards never overlap
        # Every ticket resolved to exactly its own row's code: nothing
        # lost, duplicated, or cross-wired between concurrent callers.
        np.testing.assert_array_equal(
            results.reshape(-1, BITS), expected
        )
        stats = batcher.stats()
        total = n_threads * per_thread
        assert stats["requests"] == total
        assert stats["pending"] == 0
        # Conservation: the flush-size histogram accounts for every row.
        assert sum(size * count
                   for size, count in stats["flush_sizes"].items()) == total

    def test_rows_queued_during_a_forward_ride_the_next(self):
        net = identity_network()
        encode, entered, release = gated_encoder(net)
        batcher = EncodeBatcher(encode, max_batch=64)
        k = 5
        rows = np.random.default_rng(13).standard_normal((k + 1, DIM))
        results = [None] * (k + 1)

        def client(i):
            results[i] = batcher.submit(rows[i]).result()

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(k + 1)]
        threads[0].start()
        assert entered.wait(10)  # the first forward is held open
        for thread in threads[1:]:
            thread.start()
        assert wait_until(lambda: len(batcher) == k)
        release.set()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        # The k rows that queued behind the held forward shared the next.
        assert batcher.stats()["flush_sizes"] == {1: 1, k: 1}
        for i in range(k + 1):
            np.testing.assert_array_equal(
                results[i], net.encode(rows[i:i + 1])[0]
            )

    def test_close_during_inflight_forward_resolves_every_ticket(self):
        net = identity_network()
        encode, entered, release = gated_encoder(net)
        service = HashingService(encode, n_bits=BITS)
        release.set()
        service.add(np.random.default_rng(7).standard_normal((10, DIM)))
        release.clear()
        entered.clear()
        rows = np.random.default_rng(14).standard_normal((4, DIM))
        answers = []
        querier = threading.Thread(
            target=lambda: answers.append(service.query(rows[0], top_k=3))
        )
        querier.start()
        assert entered.wait(10)  # mid-forward
        # Queued tickets nobody waits on: only close() can resolve them.
        orphans = [service.batcher.submit(row) for row in rows[1:]]
        closer = threading.Thread(target=service.close)
        closer.start()
        assert wait_until(lambda: service.closed)
        release.set()
        for thread in (querier, closer):
            thread.join(10)
        assert not querier.is_alive() and not closer.is_alive()
        assert answers and answers[0][0].shape == (1, 3)
        assert all(ticket.ready for ticket in orphans)
        np.testing.assert_array_equal(
            np.stack([ticket.result() for ticket in orphans]),
            net.encode(rows[1:]),
        )
        assert service.batcher.stats()["pending"] == 0

    def test_concurrent_queries_match_serial_with_batchnorm(self):
        network = identity_network()
        network.net = Sequential(
            Linear(DIM, 32, init_scheme="kaiming", rng=1), BatchNorm1d(32),
            ReLU(), Linear(32, BITS, rng=3), Tanh(),
        )
        rng = np.random.default_rng(15)
        # Training-mode forwards move the running statistics far from what
        # a small query batch measures, so a query forward that ran in
        # training mode would change its codes.
        for _ in range(3):
            network.net(rng.normal(1.0, 3.0, size=(64, DIM)))
        service = HashingService(network)
        service.load_database(rng.standard_normal((200, DIM)))
        n_threads, per_thread = 8, 25
        queries = rng.standard_normal((n_threads, per_thread, DIM))
        serial = [[service.query(row, top_k=5) for row in rows]
                  for rows in queries]
        before = network.net.state_dict()
        answers = [[None] * per_thread for _ in range(n_threads)]

        def client(t):
            for i in range(per_thread):
                answers[t][i] = service.query(queries[t, i], top_k=5)

        run_threads([threading.Thread(target=client, args=(t,))
                     for t in range(n_threads)])
        for t in range(n_threads):
            for i in range(per_thread):
                assert answers[t][i] is not None, f"query {t}/{i} failed"
                np.testing.assert_array_equal(answers[t][i][0],
                                              serial[t][i][0])
                np.testing.assert_array_equal(answers[t][i][1],
                                              serial[t][i][1])
        after = network.net.state_dict()
        assert before.keys() == after.keys()
        assert all(before[key].tobytes() == after[key].tobytes()
                   for key in before)

    def test_admission_is_atomic_and_counters_exact(self):
        net = identity_network()
        encode, entered, release = gated_encoder(net)
        bound, n_threads, rows_each = 6, 12, 2
        service = HashingService(
            encode, n_bits=BITS, max_pending=bound,
            clock=itertools.count().__next__, default_deadline_s=0.5,
        )
        release.set()
        service.add(np.random.default_rng(7).standard_normal((10, DIM)))
        release.clear()
        entered.clear()
        rng = np.random.default_rng(16)
        outcomes = []

        def client(rows):
            try:
                service.query(rows, top_k=3)
            except (OverloadedError, DeadlineExceededError) as exc:
                outcomes.append(type(exc))

        leader = threading.Thread(target=client,
                                  args=(rng.standard_normal((1, DIM)),))
        leader.start()
        assert entered.wait(10)  # nothing drains while this forward runs
        threads = [
            threading.Thread(target=client,
                             args=(rng.standard_normal((rows_each, DIM)),))
            for _ in range(n_threads)
        ]

        def accounted():
            stats = service.batcher.stats()
            return stats["requests"] - 1 + stats["shed"]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            assert wait_until(lambda: accounted() == n_threads * rows_each)
            # The queue filled to the bound and never past it.
            assert len(service.batcher) == bound
        finally:
            sys.setswitchinterval(switch)
            release.set()
        for thread in [leader, *threads]:
            thread.join(10)
        assert not any(t.is_alive() for t in [leader, *threads])
        admitted = bound // rows_each
        assert outcomes.count(OverloadedError) == n_threads - admitted
        # Every encoded query blew its budget (the clock ticks per read).
        assert outcomes.count(DeadlineExceededError) == admitted + 1
        stats = service.stats()
        assert stats["shed"] == (n_threads - admitted) * rows_each
        assert stats["deadline_exceeded"] == admitted + 1
        assert service.health()["shed"] == stats["shed"]

    def test_stress_through_service_auto_flush(self):
        service = make_service(max_batch=8)
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((6, DIM))
        direct = [service.query(rows[i], top_k=3) for i in range(6)]
        outcomes = [None] * 6

        def client(i):
            outcomes[i] = service.query(rows[i], top_k=3)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        for i in range(6):
            assert outcomes[i] is not None, f"query {i} hung"
            np.testing.assert_array_equal(outcomes[i][0], direct[i][0])
            np.testing.assert_array_equal(outcomes[i][1], direct[i][1])
        service.close()

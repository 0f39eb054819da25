"""Self-test of the benchmark's own arithmetic (``run.py --selftest``).

Checks tail-percentile selection, span self time over overlapping
children, the trace join across the client and the daemon, and that the
response oracle catches a corrupted answer.
"""

from __future__ import annotations

import json

import numpy as np

import query
import report


def test_tail_selection() -> None:
    samples = list(range(1000, 0, -1))  # 1..1000, unsorted
    assert report.percentile(samples, 99) == 990
    assert report.percentile(samples, 100) == 1000
    assert report.percentile([3.0, 1.0, 2.0], 50) == 2.0
    # 200 samples leave exactly 10 beyond p95, enough for the check; 199
    # leave 9, and the run fails it instead of reporting another tail.
    assert report.beyond(200, query.TAIL_PERCENTILE) == query.MIN_BEYOND
    assert report.beyond(199, query.TAIL_PERCENTILE) == 9
    assert report.beyond(1000, 99) == 10
    assert report.beyond(1, 99) == 0


def test_self_time_with_overlapping_children() -> None:
    spans = [
        (1, 0, 1, "root", 0.0, 10.0, 0),
        (2, 1, 1, "a", 1.0, 4.0, 0),
        (3, 1, 1, "b", 3.0, 6.0, 0),   # overlaps a: union is 1..6
        (4, 1, 1, "c", 9.0, 12.0, 0),  # runs past the parent: clipped
        (5, 2, 1, "d", 2.0, 3.0, 0),
    ]
    selfs = report.self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 3.0, 5: 1.0}, selfs
    table = report.layer_table(spans, {1: 10.0}, "unattributed")
    assert table["unattributed"]["self_s"] == [4.0]
    assert table["a"]["dur_s"] == [3.0]


def test_trace_join() -> None:
    client = [(1, 0, 1, "http.transport", 0.0, 5.0, 77),
              (2, 0, 2, "http.transport", 1.0, 6.0, 88)]
    server = [(1, 0, 1, "http.codec", 2.0, 4.0, 88),  # inside 1 and 2
              (2, 1, 1, "http.app", 2.5, 3.5, 0),
              (3, 0, 3, "http.codec", 1.5, 4.5, 77)]
    spans, roots = query.link_trace(client, server)
    assert roots == {1: 5.0, 2: 5.0}
    table = report.layer_table(spans, roots, "http.transport")
    assert sorted(table["http.transport"]["self_s"]) == [2.0, 3.0]
    assert table["http.codec"]["self_s"] == [1.0, 3.0]


def test_oracle_catches_corruption() -> None:
    ids = np.array([[4, 9, 2]])
    distances = np.array([[0.0, 3.0, 5.0]])
    good = json.dumps({"ids": ids.tolist(), "distances": distances.tolist(),
                       "degraded": False}).encode()
    assert query.check_response(200, good, ids, distances)
    assert not query.check_response(200, good.replace(b"9", b"8"), ids,
                                    distances)
    assert not query.check_response(200, good.replace(b"5.0", b"5.5"), ids,
                                    distances)
    assert not query.check_response(200, good[:-3], ids, distances)
    assert not query.check_response(
        200, good.replace(b"false", b"true"), ids, distances)
    assert not query.check_response(429, good, ids, distances)


def main() -> int:
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0

"""The benchmark's arithmetic: percentiles, span self time, layer tables."""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` are ``(id, parent, request, name, start, end, tag)`` tuples.
    """
    children = defaultdict(list)
    for sid, parent, _rid, _name, start, end, _tag in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _parent, _rid, _name, start, end, _tag in spans
    }


def layer_table(spans, roots: dict[int, float], root_layer: str) -> dict:
    """Per-layer totals over the request trees rooted at ``roots``.

    ``roots`` maps each root span id to its end-to-end duration; a root's
    own self time is charged to ``root_layer``.  Returns ``{layer:
    {"calls", "self_s", "dur_s", "tags"}}`` for the spans of those trees
    only: per-call self times and durations, and the sum of span tags.
    """
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": [], "dur_s": [], "tags": 0})
    for sid, _parent, rid, name, start, end, tag in spans:
        if rid not in roots:
            continue
        row = table[root_layer if sid == rid else name]
        row["calls"] += 1
        row["self_s"].append(selfs[sid])
        row["dur_s"].append(end - start)
        row["tags"] += tag
    return table


#: Layers whose self times partition one operation, in reporting order.
#: ``http.transport`` is the client request's self time (its latency minus
#: the daemon's ``handle_raw``); ``unattributed`` is a pipeline
#: operation's self time, outside every wrapped layer.
LAYERS = (
    "http.transport", "http.codec", "http.app", "http.schemas.parse",
    "service.query", "batcher.wait", "encode", "network.encode",
    "index.fanout", "index.shard_search", "mining.mine",
    "denoising.denoise", "similarity.build_q", "trainer.fit", "model.fit",
    "engine.evaluate", "service.load_database", "unattributed",
)

_EMPTY = {"calls": 0, "self_s": [], "dur_s": [], "tags": 0}


def per_layer_metrics(
    table: dict, n_ops: int, e2e_s: float, overhead_pct: float,
    busy_share: float,
) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    For each of :data:`LAYERS`: ``.calls`` per operation, ``.self_ms`` as
    the median self time of one call, and ``.share_pct`` of the traced
    end-to-end time; zeros for a layer the workload never runs.  Then the
    layer counters and the trace's own figures.
    """
    out = {}
    for layer in LAYERS:
        row = table.get(layer, _EMPTY)
        calls = row["calls"]
        out[f"{layer}.calls"] = (calls / n_ops, "calls/op")
        out[f"{layer}.self_ms"] = (
            median(row["self_s"]) * 1e3 if calls else 0.0, "ms/call")
        out[f"{layer}.share_pct"] = (100.0 * sum(row["self_s"]) / e2e_s, "%")
    search = table.get("index.fanout", _EMPTY)
    flushes = table.get("encode", _EMPTY)
    train = table.get("trainer.fit", _EMPTY)
    served = table.get("batcher.wait", _EMPTY)["calls"] > 0
    out["index.search.ms"] = (
        median(search["dur_s"]) * 1e3 if search["calls"] else 0.0,
        "ms/call")
    out["index.rows_per_search"] = (
        search["tags"] / search["calls"] if search["calls"] else 0.0,
        "rows/call")
    out["batcher.rows_per_flush"] = (
        flushes["tags"] / flushes["calls"] if served else 0.0, "rows/call")
    out["trainer.steps"] = (train["tags"] / n_ops, "steps/op")
    out["trainer.step_ms"] = (
        sum(train["dur_s"]) * 1e3 / train["tags"] if train["tags"] else 0.0,
        "ms/step")
    out["parallel.worker_busy_share"] = (busy_share, "ratio")
    covered = sum(sum(row["self_s"]) for layer, row in table.items()
                  if layer != "unattributed")
    out["trace.coverage_pct"] = (100.0 * covered / e2e_s, "%")
    out["tracing.overhead_pct"] = (overhead_pct, "%")
    return out

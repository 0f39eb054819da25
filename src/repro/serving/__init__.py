"""Online serving layer: sharded indexes, micro-batched encoding, snapshots.

This package turns the reproduction's pieces into a deployable service:

- :class:`~repro.retrieval.sharded.ShardedIndex` — the serving index (it
  lives in :mod:`repro.retrieval` next to the flat
  :class:`~repro.retrieval.engine.HammingIndex` it partitions; re-exported
  here): rows hash-partitioned across N flat indexes, merged top-k
  bit-identical to a single index.
  :class:`~repro.serving.service.HashingService` uses one shard unless
  told otherwise: a one-row search pays every shard's fixed cost, and
  shards pay off only on large batched searches (README, "Shard
  sizing").
- :class:`~repro.serving.batcher.EncodeBatcher` — group-commit batching
  of single-query encodes: rows that queue while one network forward
  runs share the next, with no timer.
- :class:`~repro.serving.service.HashingService` — the facade: load a
  model snapshot by fingerprint from the
  :class:`~repro.pipeline.ArtifactStore` (or a persistence archive), build
  or warm-load its index from a store snapshot, and serve
  ``query``/``add``/``remove``/``stats``.

- :mod:`~repro.serving.http` — the HTTP/JSON front end
  (:class:`~repro.serving.http.ServingApp` +
  :class:`~repro.serving.http.HttpServer`), a blocking server with one
  thread per connection: concurrent connections feed the shared batcher
  so independent clients coalesce into micro-batched encodes.

CLI entry points: ``python -m repro.cli serve`` (one-shot or REPL) and
``python -m repro.cli serve-http`` (network daemon); the gated scale
smokes are ``benchmarks/bench_serving_scale.py`` and
``benchmarks/bench_http_scale.py``.
"""

from repro.retrieval.sharded import ShardedIndex
from repro.serving.batcher import EncodeBatcher, EncodeTicket
from repro.serving.http import HttpServer, ServerThread, ServingApp
from repro.serving.service import (
    INDEX_STAGE,
    MODEL_STAGE,
    HashingService,
    load_model,
    publish_model,
)

__all__ = [
    "EncodeBatcher",
    "EncodeTicket",
    "HashingService",
    "HttpServer",
    "INDEX_STAGE",
    "MODEL_STAGE",
    "ServerThread",
    "ServingApp",
    "ShardedIndex",
    "load_model",
    "publish_model",
]

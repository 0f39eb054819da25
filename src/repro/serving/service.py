"""The online serving facade: snapshot-loaded models behind a sharded index.

:class:`HashingService` composes the three layers the previous PRs built in
isolation into one request/response surface:

- **model** — any encoder with ``encode()`` (a fitted UHSCM, a bare
  :class:`~repro.core.hashing_network.HashingNetwork`, a baseline).
  :func:`publish_model` snapshots a fitted UHSCM into the
  :class:`~repro.pipeline.ArtifactStore` under a content fingerprint and
  :func:`load_model` restores it — by fingerprint from the store, falling
  back to a :mod:`repro.core.persistence` archive on disk.
- **encoding** — single-query requests coalesce through an
  :class:`~repro.serving.batcher.EncodeBatcher` into batched network
  forwards.
- **index** — a :class:`~repro.retrieval.sharded.ShardedIndex` (one
  shard by default), warm-loadable: the encoded database persists as a
  store artifact (packed code bits under the ``serve_index`` stage), so a
  restarted service rebuilds its index without re-encoding a single
  database row.  The store's per-stage hit/miss counters are the audit
  trail — a warm restart shows up as a ``serve_index`` hit and zero new
  encodes.

External ids: callers may attach their own int64 ids to added rows;
``query``/``remove`` speak external ids throughout, mapped over the
index's stable internal insertion-order ids.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ShapeError,
    ShutdownError,
)
from repro.pipeline import (
    CODE_FORMAT_VERSION,
    ArtifactStore,
    Stage,
    array_fingerprint,
    canonical,
    fingerprint,
    run_stage,
)
from repro.retrieval.hamming import PackedCodes, unpack_codes
from repro.retrieval.sharded import ShardedIndex
from repro.serving.batcher import EncodeBatcher
from repro.utils.faults import NULL_INJECTOR, FaultInjector
from repro.utils.metrics import LatencyHistogram

#: Store stage names owned by the serving layer.
MODEL_STAGE = "serve_model"
INDEX_STAGE = "serve_index"

_HEX_DIGITS = set("0123456789abcdef")


def _looks_like_fingerprint(source: str) -> bool:
    return len(source) == 64 and set(source) <= _HEX_DIGITS


def publish_model(store: ArtifactStore, model) -> str:
    """Snapshot a fitted UHSCM into the store; returns its fingerprint.

    The key is content-addressed (config + construction metadata + a hash
    of every trained parameter), so republishing an identical model is a
    no-op overwrite at the same address.
    """
    from repro.core.persistence import model_payload

    meta, arrays = model_payload(model)
    key = fingerprint(
        {
            "kind": "uhscm-model",
            "format": CODE_FORMAT_VERSION,
            "meta": canonical(meta),
            "params": {
                name: array_fingerprint(array)
                for name, array in sorted(arrays.items())
            },
        }
    )
    store.put(key, meta, arrays, stage=MODEL_STAGE)
    return key


def load_model(source: str | Path, clip, store: ArtifactStore | None = None):
    """Load a serving model from a store fingerprint or an archive path.

    A 64-hex-digit ``source`` is treated as a :func:`publish_model`
    fingerprint and resolved against ``store`` first; anything else (or a
    fingerprint missing from the store) falls back to a
    :func:`repro.core.persistence.load_uhscm` archive on disk.
    """
    from repro.core.persistence import load_uhscm, restore_uhscm

    source = str(source)
    if store is not None and _looks_like_fingerprint(source):
        artifact = store.get(source, stage=MODEL_STAGE)
        if artifact is not None:
            if "format_version" not in artifact.meta:
                # e.g. a serve_index or pipeline fingerprint pasted by
                # mistake — say so instead of failing deep in restore.
                raise ConfigurationError(
                    f"store artifact {source} is not a model snapshot "
                    f"(publish one with publish_model / serve --publish)"
                )
            return restore_uhscm(artifact.meta, artifact.arrays, clip)
    path = Path(source)
    if path.exists():
        return load_uhscm(path, clip)
    raise ConfigurationError(
        f"model source {source!r} is neither a store fingerprint nor an "
        f"archive path"
    )


class HashingService:
    """Online encode + top-k Hamming lookup over one fitted model.

    Parameters
    ----------
    encoder:
        Object with ``encode(items) -> ±1 codes`` (and ideally ``n_bits``);
        pass ``n_bits=`` explicitly for bare callables.
    store:
        Optional :class:`~repro.pipeline.ArtifactStore` enabling index
        snapshots (and recording serve-stage counters).
    n_shards:
        Partitions of the :class:`~repro.retrieval.sharded.ShardedIndex`.
        One shard is the default: results are bit-identical at any shard
        count, a one-row search pays every shard's fixed cost, and more
        shards only pay off on large batched searches.
    cache_size:
        Entries of the index's merged query-result LRU cache (0 = off).
    max_batch:
        The most rows one :class:`EncodeBatcher` forward carries.
    clock:
        Monotonic time source for the latency histograms and query
        deadlines; injectable for tests.
    model_key:
        Provenance fingerprint of the encoder used to address index
        snapshots; derived from the trained parameters when omitted.
    max_pending:
        Bounded-queue load shedding: a ``query``/``add`` burst that would
        push the batcher's pending queue past this many rows is rejected
        up front with :class:`~repro.errors.OverloadedError` instead of
        being allowed to grow the queue without bound.  ``None`` (default)
        disables shedding.
    default_deadline_s:
        Per-query latency budget applied when ``query`` is called without
        an explicit ``deadline_s``; ``None`` disables the budget.
    faults:
        :class:`~repro.utils.faults.FaultInjector` threaded into the
        batcher (``encode.forward``).
    workers:
        Worker count for the index's concurrent shard fan-out
        (``None`` reads ``$REPRO_WORKERS``; ``1`` runs the shard searches
        inline).  Surfaced in :meth:`stats` and :meth:`health`; merged
        results are bit-identical at any value.
    """

    def __init__(
        self,
        encoder,
        *,
        store: ArtifactStore | None = None,
        n_shards: int = 1,
        cache_size: int = 0,
        max_batch: int = 256,
        clock: Callable[[], float] = time.monotonic,
        model_key: str | None = None,
        n_bits: int | None = None,
        max_pending: int | None = None,
        default_deadline_s: float | None = None,
        faults: FaultInjector = NULL_INJECTOR,
        workers: int | None = None,
    ) -> None:
        if max_pending is not None and max_pending <= 0:
            raise ConfigurationError(
                f"max_pending must be positive (or None): {max_pending}"
            )
        if default_deadline_s is not None and default_deadline_s <= 0:
            raise ConfigurationError(
                f"default_deadline_s must be positive (or None): "
                f"{default_deadline_s}"
            )
        self.encoder = encoder
        self._encode = encoder.encode if hasattr(encoder, "encode") else encoder
        self.n_bits = n_bits if n_bits is not None else _encoder_bits(encoder)
        self.store = store
        self.model_key = (model_key if model_key is not None
                          else _encoder_fingerprint(encoder, self.n_bits))
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.faults = faults
        self._clock = clock
        self.index = ShardedIndex(
            self.n_bits, n_shards=n_shards, cache_size=cache_size,
            workers=workers,
        )
        self.batcher = EncodeBatcher(encoder, max_batch=max_batch,
                                     faults=faults)
        #: Guards ``_deadline_exceeded``, bumped from handler threads.
        self._lock = threading.Lock()
        self._deadline_exceeded = 0
        self._closed = False
        #: Per-stage latency distributions over every query (seconds).
        self._latency = {
            stage: LatencyHistogram(clock=clock)
            for stage in ("encode", "search", "total")
        }
        #: External id of every internal (insertion-order) id ever assigned.
        self._ext_ids = np.empty(0, dtype=np.int64)
        #: external -> internal for the alive rows.
        self._int_by_ext: dict[int, int] = {}
        self._db_encodes = 0
        self._warm_loads = 0
        self._snapshot_mmap = False

    @classmethod
    def from_snapshot(
        cls,
        store: ArtifactStore,
        model_fingerprint: str,
        clip,
        **kwargs,
    ) -> "HashingService":
        """Build a service around a model published with :func:`publish_model`."""
        model = load_model(model_fingerprint, clip, store=store)
        kwargs.setdefault("model_key", model_fingerprint)
        return cls(model, store=store, **kwargs)

    # -- database ---------------------------------------------------------------

    #: Rows encoded, and rows registered, per slice of a database.
    DB_CHUNK = 65536

    def load_database(
        self,
        vectors: np.ndarray,
        key: dict | None = None,
    ) -> np.ndarray:
        """Encode + index a database, snapshotting the codes in the store.

        ``key`` is a small JSON-able provenance payload identifying the
        database rows (e.g. :func:`repro.pipeline.dataset_key`); without
        one the raw vectors are content-hashed instead.  With a store and a
        model fingerprint the encoded codes persist under the
        ``serve_index`` stage, so the next service pointed at the same
        (model, database) pair warm-loads its index with zero re-encodes.
        Returns the external ids assigned to the database rows.

        Memory model: encoding and registration proceed :attr:`DB_CHUNK`
        rows at a time, and a memmapped ``vectors`` array stays on disk,
        each slice copied to the heap only for its own forward pass.  When
        the store replays the snapshot from a raw-format artifact the
        packed code bits come back memmapped too, so K service processes
        over the same cache share one physical copy; :meth:`stats` reports
        this under ``database.snapshot_mmapped``.
        """
        if not isinstance(vectors, np.memmap):
            vectors = np.asarray(vectors, dtype=np.float64)

        def slices(n_rows: int) -> range:
            # An empty database still makes one (empty) slice.
            return range(0, max(n_rows, 1), self.DB_CHUNK)

        def build() -> tuple[dict, dict[str, np.ndarray]]:
            self._db_encodes += 1
            # Every row's code is independent in eval mode, so the slices
            # concatenate to the codes of one whole-database encode.
            bits = np.concatenate([
                np.packbits(
                    self._encode(np.asarray(vectors[s : s + self.DB_CHUNK],
                                            dtype=np.float64)) > 0,
                    axis=1,
                )
                for s in slices(vectors.shape[0])
            ])
            return (
                {"n_bits": self.n_bits, "rows": int(bits.shape[0])},
                {"bits": bits},
            )

        encodes_before = self._db_encodes
        if self.store is not None and self.model_key is not None:
            # The key is trusted provenance (like dataset_key): it must
            # change whenever the database content changes.  The shape is
            # folded in as a cheap sanity net so a same-key catalog that
            # grew or shrank can never silently serve the old snapshot.
            db_fp = (fingerprint({"kind": "db", "key": canonical(key),
                                  "shape": list(vectors.shape)})
                     if key is not None else array_fingerprint(vectors))
            stage = Stage(INDEX_STAGE,
                          params={"n_bits": self.n_bits, "db": db_fp},
                          inputs=(self.model_key,))
            bits = run_stage(self.store, stage, build).arrays["bits"]
        else:
            # Nothing is cached, so nothing needs the database's address.
            bits = build()[1]["bits"]
        if self._db_encodes == encodes_before:
            self._warm_loads += 1
        self._snapshot_mmap = isinstance(bits, np.memmap)
        return np.concatenate([
            self._register(
                unpack_codes(PackedCodes(
                    bits=np.asarray(bits[s : s + self.DB_CHUNK]),
                    n_bits=self.n_bits,
                )),
                ids=None,
            )
            for s in slices(bits.shape[0])
        ])

    # -- mutation ---------------------------------------------------------------

    def add(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Encode and index new rows; returns their external ids.

        ``ids`` optionally assigns caller-owned int64 ids (must be unique
        and not collide with any alive row); by default rows get the
        index's insertion-order ids.
        """
        self._check_open()
        codes = self._encode(np.asarray(vectors, dtype=np.float64))
        return self._register(codes, ids)

    def _register(self, codes: np.ndarray, ids: np.ndarray | None) -> np.ndarray:
        n_new = codes.shape[0]
        internal = np.arange(self._ext_ids.size, self._ext_ids.size + n_new,
                             dtype=np.int64)
        if ids is None:
            external = internal
            collisions = [e for e in external.tolist()
                          if e in self._int_by_ext]
            if collisions:
                raise ConfigurationError(
                    f"auto-assigned id(s) {collisions[:5]} collide with "
                    f"caller-assigned external ids; pass explicit ids= to "
                    f"this add()"
                )
        else:
            external = np.atleast_1d(np.asarray(ids, dtype=np.int64))
            if external.shape != (n_new,):
                raise ShapeError(
                    f"got {external.size} ids for {n_new} rows"
                )
            if np.unique(external).size != n_new:
                raise ConfigurationError("external ids must be unique")
            collisions = [e for e in external.tolist() if e in self._int_by_ext]
            if collisions:
                raise ConfigurationError(
                    f"external id(s) already in use: {collisions[:5]}"
                )
        self.index.add(codes)
        self._ext_ids = np.concatenate([self._ext_ids, external])
        self._int_by_ext.update(
            zip(external.tolist(), internal.tolist())
        )
        return external.copy()

    def remove(self, ids: np.ndarray) -> int:
        """Remove rows by external id (unknown ids are ignored)."""
        self._check_open()
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        known = [e for e in dict.fromkeys(ids.tolist())
                 if e in self._int_by_ext]
        if not known:
            return 0
        internal = np.array([self._int_by_ext[e] for e in known],
                            dtype=np.int64)
        removed = self.index.remove(internal)
        for e in known:
            del self._int_by_ext[e]
        return removed

    # -- queries ----------------------------------------------------------------

    def query(
        self,
        vectors: np.ndarray,
        top_k: int = 10,
        deadline_s: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode queries through the batcher and search the index.

        ``vectors`` is one query item (1-D) or a batch (first axis = items);
        every row rides the batcher, so a burst of requests coalesces into
        ``ceil(n / max_batch)`` network forwards and one fan-out search,
        and rows of concurrent queries share forwards by group commit
        (see :mod:`repro.serving.batcher`).  Returns
        ``(external_ids, distances)``, both ``(n, top_k)``.

        Fault surface: when the service is overloaded (``max_pending``)
        the whole request is shed up front with
        :class:`~repro.errors.OverloadedError` — no partial enqueue.  A
        ``deadline_s`` budget (defaulting to ``default_deadline_s``) is
        checked between the encode and search stages and raises
        :class:`~repro.errors.DeadlineExceededError` once blown.  A shard
        search that raises fails this query with its own exception; the
        index keeps no failure state, so the next query answers.
        A service that has been :meth:`close`\\ d refuses new queries with
        :class:`~repro.errors.ShutdownError`.
        """
        self._check_open()
        vectors = np.asarray(vectors)  # the batcher casts per dtype policy
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.shape[0] == 0:
            raise ShapeError("query needs at least one vector")
        deadline = deadline_s if deadline_s is not None else self.default_deadline_s
        start = self._clock()
        tickets = self.batcher.submit_many(vectors,
                                           max_pending=self.max_pending)
        codes = np.stack([ticket.result() for ticket in tickets])
        t_encoded = self._clock()
        self._latency["encode"].record(t_encoded - start)
        self._check_deadline(start, deadline, stage="encode")
        internal, distances = self.index.search(codes, top_k=top_k)
        t_searched = self._clock()
        self._latency["search"].record(t_searched - t_encoded)
        self._latency["total"].record(t_searched - start)
        self._check_deadline(start, deadline, stage="search")
        return self._ext_ids[internal], distances

    def _check_deadline(
        self, start: float, deadline: float | None, stage: str
    ) -> None:
        if deadline is None:
            return
        elapsed = self._clock() - start
        if elapsed > deadline:
            with self._lock:
                self._deadline_exceeded += 1
            raise DeadlineExceededError(
                f"query blew its {deadline:.6g}s budget after the {stage} "
                f"stage ({elapsed:.6g}s elapsed)"
            )

    def __len__(self) -> int:
        return len(self.index)

    # -- lifecycle --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has retired this service."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ShutdownError(
                "service is shut down; it no longer accepts requests"
            )

    def close(self) -> None:
        """Drain and retire the service (idempotent).

        New ``query``/``add``/``remove`` calls are refused with
        :class:`~repro.errors.ShutdownError`; any encodes still pending in
        the batcher flush first so no ticket is stranded, and the index's
        fan-out pool joins its workers, leaving balanced submitted/completed
        counters.
        """
        if self._closed:
            return
        self._closed = True
        self.batcher.flush()
        self.index.close()

    # -- reporting --------------------------------------------------------------

    def health(self) -> dict:
        """One-call resilience report for operators and the serve CLI.

        ``status`` is ``"ok"`` while the service accepts requests and
        ``"shutdown"`` once :meth:`close` retired it.  The rest is the raw
        evidence: the store's corruption/quarantine/retry counters, the
        batcher's poison counters, and the service-level shed/deadline
        counters.
        """
        batcher = self.batcher.stats()
        report: dict = {
            "status": "shutdown" if self._closed else "ok",
            "closed": self._closed,
            "workers": self.index.workers,
            "batcher": {
                key: batcher[key]
                for key in ("pending", "flush_failures",
                            "isolation_flushes", "poisoned")
            },
            "shed": batcher["shed"],
            "deadline_exceeded": self._deadline_exceeded,
            "store": None,
        }
        if self.store is not None:
            stats = self.store.stats()
            report["store"] = {
                key: stats[key]
                for key in ("corruptions", "quarantined", "retries",
                            "read_failures", "put_failures",
                            "quarantine_entries")
            }
        return report

    def stats(self) -> dict:
        """Serving counters: shard sizes, batcher histogram, cache rates,
        and per-stage (encode/search/total) query latency percentiles."""
        batcher = self.batcher.stats()
        out: dict = {
            "n_bits": self.n_bits,
            "size": len(self.index),
            "shards": list(self.index.shard_sizes),
            "workers": self.index.workers,
            "batcher": batcher,
            "shed": batcher["shed"],
            "deadline_exceeded": self._deadline_exceeded,
            "closed": self._closed,
            "latency": {
                stage: hist.snapshot()
                for stage, hist in self._latency.items()
            },
            "database": {
                "encodes": self._db_encodes,
                "warm_loads": self._warm_loads,
                "snapshot_mmapped": self._snapshot_mmap,
            },
            "caches": {},
            "pool": self.index.pool_stats(),
        }
        cache = self.index.cache
        if cache is not None:
            out["caches"]["index"] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": cache.hit_rate,
            }
        if self.store is not None:
            stages = self.store.stats()["stages"]
            out["store_stages"] = {
                name: dict(stages[name])
                for name in (MODEL_STAGE, INDEX_STAGE)
                if name in stages
            }
        return out


def _encoder_bits(encoder) -> int:
    """Code length of an encoder (UHSCM, HashingNetwork, or baseline)."""
    n_bits = getattr(encoder, "n_bits", None)
    if n_bits is None:
        config = getattr(encoder, "config", None)
        n_bits = getattr(config, "n_bits", None)
    if n_bits is None:
        raise ConfigurationError(
            "cannot infer n_bits from the encoder; pass n_bits= explicitly"
        )
    return int(n_bits)


def _encoder_fingerprint(encoder, n_bits: int) -> str | None:
    """Content fingerprint of an encoder's trained parameters, best effort.

    ``None`` (for encoders without an inspectable state dict) disables
    index snapshots rather than risking a stale-address collision.
    """
    net = getattr(encoder, "network", encoder)
    inner = getattr(net, "net", None)
    if inner is None or not hasattr(inner, "state_dict"):
        return None
    state = inner.state_dict()
    return fingerprint(
        {
            "kind": "encoder-state",
            "format": CODE_FORMAT_VERSION,
            "n_bits": n_bits,
            "params": {
                name: array_fingerprint(array)
                for name, array in sorted(state.items())
            },
        }
    )

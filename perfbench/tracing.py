"""In-memory span tracing, installed from outside the program under test.

The benchmark times layers by wrapping public entry points of the
``repro`` package (``Tracer.wrap``), never by editing the package.  Each
wrapped call records one span: ``(id, parent, request, name, start, end,
tag)``.  The parent is the innermost traced call active on the same
thread; the request id is the id of the root span of that call tree.
``tag`` carries one integer per span: the row count of an encode or
search call, the optimizer steps a training call ran, or the CRC-32 of an
HTTP request body (which lets the client match its own request spans to
the daemon's).

Spans stay in memory and are written out with :meth:`Tracer.dump` at
exit.  Recording is off until :attr:`Tracer.enabled` is set, so the same
process can run an untraced and a traced window back to back and report
the tracing overhead.

:func:`install_layers` wraps every layer the benchmark reports.  Modules
that import a function by name are patched at the name the caller looks
up (``repro.core.similarity.denoise_concepts``, not the defining module).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import zlib


class Tracer:
    """Span recorder shared by every wrapper installed in one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        #: ``(start, end)`` of each task a worker pool ran while enabled.
        self.tasks: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn, tag=None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``tag(args, result)`` optionally derives the span's integer tag
        from the call's positional arguments and its return value
        (``None`` when the call raised).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent, rid = stack[-1] if stack else (0, sid)
            stack.append((sid, rid))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, rid, name, start, end,
                                     tag(args, result) if tag else 0))

        return wrapper

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            setattr(owner, attr,
                    classmethod(self.traced(name, static.__func__, tag)))
        else:
            setattr(owner, attr, self.traced(name, getattr(owner, attr), tag))

    def wrap_pool_tasks(self, pool_cls) -> None:
        """Time every task ``pool_cls.map`` runs (worker busy time)."""
        tracer = self
        original = pool_cls.map

        @functools.wraps(original)
        def map_(pool, fn, items):
            if not tracer.enabled:
                return original(pool, fn, items)

            def task(item):
                start = time.perf_counter()
                try:
                    return fn(item)
                finally:
                    tracer.tasks.append((start, time.perf_counter()))

            return original(pool, task, items)

        pool_cls.map = map_

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "tasks": self.tasks}, fh)


def rows_tag(args, _result) -> int:
    """Tag a method span with the row count of its first argument."""
    shape = getattr(args[1], "shape", None)
    return int(shape[0]) if shape else 0


def body_crc(args, _result) -> int:
    """Tag for ``ServingApp.handle_raw(self, method, path, body)``."""
    return zlib.crc32(args[3])


def steps_tag(_args, history) -> int:
    """Tag for ``UHSCMTrainer.fit``: optimizer steps the call ran."""
    return int(sum(history.batches)) if history is not None else 0


#: (module, owner attribute or None for a module function, attribute,
#:  span name, tag).  ``ShardedIndex.search`` is named for its self time,
#:  the fan-out and merge around the per-shard searches.
LAYERS: tuple[tuple, ...] = (
    ("repro.serving.http.app", "ServingApp", "handle_raw", "http.codec",
     body_crc),
    ("repro.serving.http.app", "ServingApp", "handle", "http.app", None),
    ("repro.serving.http.schemas", None, "parse_query", "http.schemas.parse",
     None),
    ("repro.serving.service", "HashingService", "query", "service.query",
     None),
    ("repro.serving.service", "HashingService", "load_database",
     "service.load_database", None),
    ("repro.serving.batcher", "EncodeTicket", "result", "batcher.wait", None),
    ("repro.core.uhscm", "UHSCM", "fit", "model.fit", None),
    ("repro.core.uhscm", "UHSCM", "encode", "encode", rows_tag),
    ("repro.core.hashing_network", "HashingNetwork", "encode",
     "network.encode", rows_tag),
    ("repro.retrieval.sharded", "ShardedIndex", "search", "index.fanout",
     rows_tag),
    ("repro.retrieval.engine", "HammingIndex", "search", "index.shard_search",
     rows_tag),
    ("repro.core.mining", "ConceptMiner", "mine", "mining.mine", None),
    ("repro.core.similarity", None, "denoise_concepts", "denoising.denoise",
     None),
    ("repro.core.similarity", None, "similarity_from_distributions",
     "similarity.build_q", None),
    ("repro.core.similarity_matrix", "SparseTopKSimilarity", "from_features",
     "similarity.build_q", None),
    ("repro.core.trainer", "UHSCMTrainer", "fit", "trainer.fit", steps_tag),
    ("repro.experiments.runner", None, "evaluate_codes", "engine.evaluate",
     None),
)


def install_layers(tracer: Tracer) -> None:
    """Wrap every benchmark layer's entry point with ``tracer``."""
    for module_name, owner_name, attr, name, tag in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        tracer.wrap(owner, attr, name, tag)
    from repro.utils.parallel import WorkerPool

    tracer.wrap_pool_tasks(WorkerPool)

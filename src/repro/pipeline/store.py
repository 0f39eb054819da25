"""Content-addressed artifact store backing the staged UHSCM pipeline.

Artifacts are ``(meta, arrays)`` pairs — a small JSON-able metadata dict
plus named numpy arrays — addressed by their stage fingerprint.  The store
is a bounded in-memory LRU over an optional on-disk layer:

- **memory**: an ``OrderedDict`` of the most recently used artifacts, so a
  sweep that re-reads the same Q matrix never touches disk;
- **disk** (when ``cache_dir`` is given): one ``.npz`` archive per artifact
  under ``<cache_dir>/objects/``, written atomically (tmp + rename) so a
  killed run never leaves a truncated artifact behind.  File mtimes double
  as the LRU clock; eviction removes the stalest archives once
  ``max_entries`` / ``max_bytes`` is exceeded.

Large artifacts additionally have a **raw** on-disk format — a
``<key>.raw/`` directory holding one ``.npy`` file per array plus a
``meta.json`` manifest — whose arrays come back from :meth:`ArtifactStore.get`
as read-only ``np.memmap`` views instead of heap copies, so K processes
reading the same artifact share one physical copy of the pages.  ``put``
routes an artifact to the raw format once its arrays reach
:attr:`ArtifactStore.MMAP_BYTES`.  Raw directories are written atomically
too (tmp dir + rename) and participate in the same LRU eviction.

Hit/miss/put/eviction counters are kept per stage and — with a disk layer —
persisted to ``<cache_dir>/stats.json`` after every event, so ``repro.cli
cache stats`` reports on runs that died mid-flight.  The stats file also
remembers which stage owns each key, which is what lets ``cache stats``
attribute on-disk bytes and evictions per stage.

**Integrity & fault tolerance** (PR 7): every artifact records a sha256
content digest at ``put`` time (inside the ``.npz`` metadata
row, or per-member in the raw manifest) and is verified on its first disk
read per store instance; a mismatch — or any other unreadable entry —
raises internally as :class:`~repro.errors.ArtifactCorruptionError` and
the entry is **quarantined** to ``<cache_dir>/quarantine/`` (never
silently deleted) before the store reports a miss, so the pipeline
rebuilds exactly once and the bad bytes stay available for a post-mortem.
Disk reads and writes run under an injectable
:class:`~repro.utils.retry.RetryPolicy` (transient I/O errors retry with
backoff; an exhausted read degrades to a miss, an exhausted write
degrades to serving the artifact from memory only), and every disk
operation consults the store's :class:`~repro.utils.faults.FaultInjector`
at the ``store.read`` / ``store.write`` points so the whole ladder is
testable deterministically.  ``corruptions`` / ``quarantined`` /
``retries`` / ``read_failures`` / ``put_failures`` counters persist next
to the hit/miss ones.

The archive format (``__meta__`` JSON row + named arrays in one ``.npz``)
is shared with :mod:`repro.core.persistence`, which is a thin client of
:func:`write_archive` / :func:`read_archive`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import (
    ArtifactCorruptionError,
    ConfigurationError,
    TransientError,
)
from repro.pipeline.fingerprint import hash_array
from repro.utils.faults import NULL_INJECTOR, FaultInjector
from repro.utils.retry import RetryPolicy

_LOG = logging.getLogger(__name__)

_META_KEY = "__meta__"

#: Manifest filename inside a raw-format artifact directory.
_RAW_MANIFEST = "meta.json"

#: Reserved metadata field carrying the ``.npz`` content digest.
_DIGEST_KEY = "__digest__"

#: Exceptions meaning "the bytes on disk are not a valid artifact" — the
#: quarantine path.  Transient I/O errors (``OSError``) are retried, not
#: quarantined; anything here is deterministic badness.
_CORRUPT_ERRORS = (
    ArtifactCorruptionError,
    ConfigurationError,
    ValueError,  # bad .npy headers, malformed JSON, np.load refusals
    KeyError,  # missing archive members
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
)


def content_digest(meta: dict, arrays: dict[str, np.ndarray]) -> str:
    """sha256 over an artifact's metadata and named arrays."""
    digest = hashlib.sha256()
    digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        hash_array(arrays[name], digest)
    return digest.hexdigest()


# -- archive (de)serialization ------------------------------------------------


def write_archive(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Atomically write ``meta`` + ``arrays`` as one ``.npz`` archive.

    A sha256 content digest over the metadata and arrays rides along in
    the metadata row under a reserved field; :func:`read_archive` verifies
    it so silent bit rot surfaces as
    :class:`~repro.errors.ArtifactCorruptionError` instead of bad science.
    """
    path = Path(path)
    if _META_KEY in arrays:
        raise ConfigurationError(f"array name {_META_KEY!r} is reserved")
    if _DIGEST_KEY in meta:
        raise ConfigurationError(f"meta field {_DIGEST_KEY!r} is reserved")
    stamped = dict(meta)
    stamped[_DIGEST_KEY] = content_digest(meta, arrays)
    payload = {
        _META_KEY: np.frombuffer(
            json.dumps(stamped).encode("utf-8"), dtype=np.uint8
        )
    }
    payload.update(arrays)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def read_archive(
    path: str | Path, verify: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read an archive written by :func:`write_archive`.

    With ``verify=True`` (the default) the embedded content digest — when
    present; archives from before the integrity layer carry none — is
    recomputed over the loaded payload and a mismatch raises
    :class:`~repro.errors.ArtifactCorruptionError`.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such archive: {path}")
    with np.load(path) as archive:
        if _META_KEY not in archive.files:
            raise ConfigurationError(f"not a repro archive (no metadata): {path}")
        meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        arrays = {k: archive[k] for k in archive.files if k != _META_KEY}
    recorded = meta.pop(_DIGEST_KEY, None)
    if verify and recorded is not None:
        actual = content_digest(meta, arrays)
        if actual != recorded:
            raise ArtifactCorruptionError(
                f"archive {path} failed its integrity check: recorded "
                f"digest {recorded[:12]}…, recomputed {actual[:12]}…"
            )
    return meta, arrays


def write_raw_archive(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Atomically write ``meta`` + ``arrays`` as a raw-format directory.

    Layout: one ``.npy`` file per array plus a ``meta.json`` manifest
    mapping array names (which may contain characters illegal in
    filenames, e.g. ``param/w0``) to their files.  The directory is
    assembled under a ``.tmp`` sibling and renamed into place, so readers
    never observe a half-written artifact.
    """
    path = Path(path)
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=path.name + ".",
                                suffix=".tmp"))
    try:
        files = {name: f"a{i}.npy" for i, name in enumerate(sorted(arrays))}
        digests = {}
        for name, filename in files.items():
            array = np.asarray(arrays[name])
            np.save(tmp / filename, array)
            digests[name] = hash_array(array).hexdigest()
        (tmp / _RAW_MANIFEST).write_text(
            json.dumps({"meta": meta, "arrays": files, "digests": digests})
        )
        if path.exists():
            shutil.rmtree(path)
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def read_raw_archive(
    path: str | Path, mmap: bool = True, verify: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a raw-format artifact directory.

    With ``mmap=True`` (the default) every array comes back as a read-only
    ``np.memmap`` view — the page cache, not the heap, holds the data, and
    concurrent readers share one physical copy.  With ``verify=True`` each
    member whose digest the manifest records (manifests from before the
    integrity layer record none) is re-hashed — a streaming pass through
    the memmap, no heap copy — and a mismatch raises
    :class:`~repro.errors.ArtifactCorruptionError`.
    """
    path = Path(path)
    manifest_path = path / _RAW_MANIFEST
    if not manifest_path.exists():
        raise ConfigurationError(f"not a raw repro artifact: {path}")
    manifest = json.loads(manifest_path.read_text())
    arrays = {
        name: np.load(path / filename, mmap_mode="r" if mmap else None)
        for name, filename in manifest["arrays"].items()
    }
    if verify:
        digests = manifest.get("digests", {})
        for name, recorded in digests.items():
            actual = hash_array(arrays[name]).hexdigest()
            if actual != recorded:
                raise ArtifactCorruptionError(
                    f"raw artifact member {name!r} in {path} failed its "
                    f"integrity check: recorded digest {recorded[:12]}…, "
                    f"recomputed {actual[:12]}…"
                )
    return manifest["meta"], arrays


# -- the store ----------------------------------------------------------------


@dataclass
class Artifact:
    """One cached stage output: JSON metadata plus named arrays."""

    key: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


class ArtifactStore:
    """Bounded, content-addressed cache of pipeline stage outputs.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk layer; ``None`` keeps the store purely
        in-memory (artifacts die with the process, stats are not persisted).
    max_entries / max_bytes:
        Disk-layer bounds; the least recently used archives are evicted
        once either is exceeded.  ``None`` disables the bound.
    retry:
        :class:`~repro.utils.retry.RetryPolicy` wrapped around every disk
        read and write (default: 3 attempts, 10 ms exponential backoff).
        A read that stays transiently broken degrades to a miss; a write
        degrades to serving the artifact from memory only.  Corruption is
        never retried — it goes to quarantine.
    faults:
        :class:`~repro.utils.faults.FaultInjector` consulted at the
        ``store.read`` / ``store.write`` points; the shared disarmed
        :data:`~repro.utils.faults.NULL_INJECTOR` by default.
    """

    #: With a ``cache_dir``, an artifact whose arrays total at least this
    #: many bytes is stored raw and read back memmapped; any other is an
    #: ``.npz``.  A raw artifact on disk always reads back memmapped.
    MMAP_BYTES = 32 * 1024 * 1024
    #: Bounds of the in-memory LRU layer; a larger artifact, or a
    #: memmapped one, is never pinned there.
    MEMORY_ENTRIES = 64
    MEMORY_BYTES = 256 * 1024 * 1024

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultInjector = NULL_INJECTOR,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError(f"max_entries must be positive: {max_entries}")
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(f"max_bytes must be positive: {max_bytes}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self._memory: OrderedDict[str, Artifact] = OrderedDict()
        self._memory_used = 0
        #: Keys whose on-disk bytes this store instance wrote or already
        #: digest-verified; later reads of the same key skip re-hashing.
        self._verified: set[str] = set()
        self._stats: dict = {"hits": 0, "misses": 0, "puts": 0,
                             "evictions": 0, "corruptions": 0,
                             "quarantined": 0, "retries": 0,
                             "read_failures": 0, "put_failures": 0,
                             "stages": {}, "key_stages": {}}
        if self.cache_dir is not None:
            self._objects_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_orphans()
            self._load_stats()

    def _sweep_orphans(self) -> None:
        """Remove temp files/dirs a killed process left behind mid-write."""
        assert self.cache_dir is not None
        for directory in (self.cache_dir, self._objects_dir):
            for orphan in directory.glob("*.tmp"):
                try:
                    if orphan.is_dir():
                        shutil.rmtree(orphan, ignore_errors=True)
                    else:
                        orphan.unlink()
                except OSError:
                    pass

    # -- paths -------------------------------------------------------------

    @property
    def _objects_dir(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / "objects"

    @property
    def _stats_path(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / "stats.json"

    def _object_path(self, key: str) -> Path:
        return self._objects_dir / f"{key}.npz"

    def _raw_path(self, key: str) -> Path:
        return self._objects_dir / f"{key}.raw"

    @property
    def quarantine_dir(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / "quarantine"

    # -- stats -------------------------------------------------------------

    def _load_stats(self) -> None:
        try:
            loaded = json.loads(self._stats_path.read_text())
        except (OSError, ValueError):
            return
        if isinstance(loaded, dict):
            for field_name in ("hits", "misses", "puts", "evictions",
                               "corruptions", "quarantined", "retries",
                               "read_failures", "put_failures"):
                if isinstance(loaded.get(field_name), int):
                    self._stats[field_name] = loaded[field_name]
            if isinstance(loaded.get("stages"), dict):
                self._stats["stages"] = loaded["stages"]
            if isinstance(loaded.get("key_stages"), dict):
                self._stats["key_stages"] = loaded["key_stages"]

    def _save_stats(self) -> None:
        if self.cache_dir is None:
            return
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(self._stats, handle, indent=1)
        os.replace(tmp_name, self._stats_path)

    def _stage_counters(self, stage: str) -> dict:
        per = self._stats["stages"].setdefault(
            stage, {"hits": 0, "misses": 0, "puts": 0}
        )
        # Stats files written before per-stage eviction/integrity tracking
        # carry no such keys; backfill so increments never KeyError.
        for field_name in ("evictions", "corruptions", "quarantined"):
            per.setdefault(field_name, 0)
        return per

    def _record(self, event: str, stage: str | None) -> None:
        self._stats[event] += 1
        if stage is not None:
            per = self._stage_counters(stage)
            if event in per:
                per[event] += 1
        self._save_stats()

    def _note_owner(self, key: str, stage: str | None) -> None:
        """Remember which stage owns ``key`` (for per-stage disk stats)."""
        if stage is not None:
            self._stats["key_stages"][key] = stage

    def stats(self) -> dict:
        """Cumulative counters plus current disk occupancy.

        Per-stage entries carry their hit/miss/put/eviction counters plus
        the current ``disk_entries`` / ``disk_bytes`` attributable to keys
        that stage put (keys stored without a stage label fall outside the
        per-stage disk split but still count in the totals).
        """
        stages = {
            name: {"evictions": 0, "corruptions": 0, "quarantined": 0,
                   **dict(counts)}
            for name, counts in self._stats["stages"].items()
        }
        for per in stages.values():
            per.setdefault("disk_entries", 0)
            per.setdefault("disk_bytes", 0)
        out = {
            "hits": self._stats["hits"],
            "misses": self._stats["misses"],
            "puts": self._stats["puts"],
            "evictions": self._stats["evictions"],
            "corruptions": self._stats["corruptions"],
            "quarantined": self._stats["quarantined"],
            "retries": self._stats["retries"],
            "read_failures": self._stats["read_failures"],
            "put_failures": self._stats["put_failures"],
            "stages": stages,
            "memory_entries": len(self._memory),
            "disk_entries": 0,
            "disk_bytes": 0,
            "quarantine_entries": 0,
            "quarantine_bytes": 0,
        }
        key_stages = self._stats["key_stages"]
        for path, size, _ in self._disk_listing():
            out["disk_entries"] += 1
            out["disk_bytes"] += size
            stage = key_stages.get(path.stem)
            if stage is not None and stage in stages:
                stages[stage]["disk_entries"] += 1
                stages[stage]["disk_bytes"] += size
        if self.cache_dir is not None and self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                try:
                    if path.is_dir():
                        size = sum(m.stat().st_size for m in path.iterdir()
                                   if m.is_file())
                    else:
                        size = path.stat().st_size
                except OSError:
                    continue
                out["quarantine_entries"] += 1
                out["quarantine_bytes"] += size
        return out

    # -- fault handling ----------------------------------------------------

    def _with_retry(self, fn, label: str):
        """Run one disk operation under the retry policy, counting retries."""
        before = self.retry.retries
        try:
            return self.retry.call(fn, label=label)
        finally:
            delta = self.retry.retries - before
            if delta:
                self._stats["retries"] += delta

    def _quarantine(
        self, path: Path, key: str, stage: str | None, exc: BaseException
    ) -> None:
        """Move a corrupt entry aside for post-mortem instead of deleting it."""
        assert self.cache_dir is not None
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / path.name
        self._remove_entry(dest)  # an older quarantined copy gives way
        try:
            shutil.move(str(path), str(dest))
        except OSError:
            # Cross-device or permission trouble: removal is the fallback —
            # a corrupt artifact must never be served again.
            self._remove_entry(path)
        self._memory.pop(key, None)
        self._verified.discard(key)
        self._stats["corruptions"] += 1
        self._stats["quarantined"] += 1
        if stage is not None:
            per = self._stage_counters(stage)
            per["corruptions"] += 1
            per["quarantined"] += 1
        self._save_stats()
        _LOG.warning(
            "quarantined corrupt artifact %s -> %s (%s); it will be rebuilt",
            path.name, dest, exc,
        )

    # -- core operations ---------------------------------------------------

    def get(self, key: str, stage: str | None = None) -> Artifact | None:
        """Look ``key`` up in memory, then on disk; ``None`` on miss.

        A raw-format hit returns read-only ``np.memmap`` array views (disk
        stays the residence of the data); an ``.npz`` hit returns heap
        arrays exactly as before.  The first disk read of a key per store
        instance verifies its recorded sha256 digest; a corrupt entry
        (digest mismatch, truncated archive, unreadable manifest) is
        quarantined under ``<cache_dir>/quarantine/`` and reported as a
        miss, and a transiently failing read retries under the store's
        policy before likewise degrading to a miss.
        """
        artifact = self._memory.get(key)
        if artifact is not None:
            self._memory.move_to_end(key)
            self._record("hits", stage)
            return artifact
        if self.cache_dir is not None:
            for path, reader in (
                (self._raw_path(key), read_raw_archive),
                (self._object_path(key), read_archive),
            ):
                if not path.exists():
                    continue
                verify = key not in self._verified

                def attempt():
                    self.faults.check("store.read", key=key)
                    if reader is read_raw_archive:
                        return read_raw_archive(path, verify=verify)
                    return read_archive(path, verify=verify)

                try:
                    meta, arrays = self._with_retry(
                        attempt, label=f"read {key[:12]}"
                    )
                except (TransientError, OSError) as exc:
                    # The bytes may be fine — the read path is not.  Do not
                    # quarantine; degrade to a miss so the caller rebuilds.
                    self._stats["read_failures"] += 1
                    self._save_stats()
                    _LOG.warning("read of artifact %s kept failing (%s); "
                                 "treating as a miss", path.name, exc)
                    continue
                except _CORRUPT_ERRORS as exc:
                    self._quarantine(path, key, stage, exc)
                    continue
                self._verified.add(key)
                os.utime(path)  # refresh the LRU clock
                artifact = Artifact(key=key, meta=meta, arrays=arrays)
                self._remember(artifact)
                self._record("hits", stage)
                return artifact
        self._record("misses", stage)
        return None

    def put(
        self,
        key: str,
        meta: dict,
        arrays: dict[str, np.ndarray] | None = None,
        stage: str | None = None,
    ) -> Artifact:
        """Store an artifact under ``key`` and return it.

        With a disk layer, an artifact of at least :attr:`MMAP_BYTES` is
        written in the raw format and the returned artifact's arrays are
        re-opened as read-only memmaps — the heap copy the caller built is
        free to die.  A smaller artifact is written as an ``.npz``.

        A transiently failing write retries under the store's policy; if
        it stays broken the artifact is served from memory only for this
        process (``put_failures`` counts the event) rather than failing
        the pipeline run that just computed it.
        """
        artifact = Artifact(key=key, meta=dict(meta), arrays=dict(arrays or {}))
        if self.cache_dir is not None:
            use_raw = self._artifact_bytes(artifact) >= self.MMAP_BYTES

            def write():
                self.faults.check("store.write", key=key)
                if use_raw:
                    write_raw_archive(self._raw_path(key), artifact.meta,
                                      artifact.arrays)
                else:
                    write_archive(self._object_path(key), artifact.meta,
                                  artifact.arrays)

            try:
                self._with_retry(write, label=f"write {key[:12]}")
            except (TransientError, OSError) as exc:
                self._stats["put_failures"] += 1
                self._save_stats()
                _LOG.warning(
                    "write of artifact %s kept failing (%s); serving it "
                    "from memory only", key[:12], exc,
                )
                self._remember(artifact)
                self._record("puts", stage)
                return artifact
            self._verified.add(key)
            if use_raw:
                self._object_path(key).unlink(missing_ok=True)
                meta_back, arrays_back = read_raw_archive(
                    self._raw_path(key), verify=False
                )
                artifact = Artifact(key=key, meta=meta_back,
                                    arrays=arrays_back)
            else:
                if self._raw_path(key).exists():
                    shutil.rmtree(self._raw_path(key), ignore_errors=True)
            self._note_owner(key, stage)
            self._evict()
        self._remember(artifact)
        self._record("puts", stage)
        return artifact

    def contains(self, key: str) -> bool:
        """Presence check that does not touch the stats or the LRU clock."""
        if key in self._memory:
            return True
        return (self.cache_dir is not None
                and (self._object_path(key).exists()
                     or self._raw_path(key).exists()))

    def clear(self) -> int:
        """Drop every artifact (memory + disk + quarantine); returns the
        number of live artifacts removed."""
        keys = set(self._memory)
        self._memory.clear()
        self._memory_used = 0
        self._verified.clear()
        if self.cache_dir is not None:
            self._sweep_orphans()
            for path, _, _ in self._disk_listing():
                keys.add(path.stem)
                self._remove_entry(path)
            if self.quarantine_dir.is_dir():
                shutil.rmtree(self.quarantine_dir, ignore_errors=True)
            self._stats["key_stages"].clear()
            self._save_stats()
        return len(keys)

    # -- memory / disk bookkeeping ----------------------------------------

    @staticmethod
    def _artifact_bytes(artifact: Artifact) -> int:
        return sum(a.nbytes for a in artifact.arrays.values())

    def _remember(self, artifact: Artifact) -> None:
        if any(isinstance(a, np.memmap) for a in artifact.arrays.values()):
            return  # memmapped arrays are already shared; never pin copies
        size = self._artifact_bytes(artifact)
        if size > self.MEMORY_BYTES:
            return  # oversized artifacts are served from disk only
        old = self._memory.pop(artifact.key, None)
        if old is not None:
            self._memory_used -= self._artifact_bytes(old)
        self._memory[artifact.key] = artifact
        self._memory_used += size
        while self._memory and (len(self._memory) > self.MEMORY_ENTRIES
                                or self._memory_used > self.MEMORY_BYTES):
            _, evicted = self._memory.popitem(last=False)
            self._memory_used -= self._artifact_bytes(evicted)

    @staticmethod
    def _remove_entry(path: Path) -> None:
        """Delete one on-disk artifact, whichever format it is."""
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)

    def _disk_listing(self) -> list[tuple[Path, int, float]]:
        """``(path, bytes, mtime)`` for every on-disk artifact.

        Raw-format directories report the sum of their file sizes; their
        mtime is the directory's own, refreshed by ``get`` like any
        archive's.
        """
        if self.cache_dir is None:
            return []
        out = []
        for path in self._objects_dir.iterdir():
            try:
                if path.suffix == ".npz" and path.is_file():
                    stat = path.stat()
                    out.append((path, stat.st_size, stat.st_mtime))
                elif path.suffix == ".raw" and path.is_dir():
                    size = sum(
                        member.stat().st_size
                        for member in path.iterdir()
                        if member.is_file()
                    )
                    out.append((path, size, path.stat().st_mtime))
            except OSError:
                continue
        return out

    def _evict(self) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        # (mtime, key) — the key tie-break makes same-second writes (coarse
        # filesystem timestamps) evict in a stable, reproducible order.
        listing = sorted(self._disk_listing(),
                         key=lambda item: (item[2], item[0].stem))
        total_bytes = sum(size for _, size, _ in listing)
        count = len(listing)
        for path, size, _ in listing:
            over_entries = (self.max_entries is not None
                            and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and total_bytes > self.max_bytes)
            if not (over_entries or over_bytes):
                break
            self._remove_entry(path)
            dropped = self._memory.pop(path.stem, None)
            if dropped is not None:
                self._memory_used -= self._artifact_bytes(dropped)
            count -= 1
            total_bytes -= size
            self._stats["evictions"] += 1
            stage = self._stats["key_stages"].get(path.stem)
            if stage is not None:
                self._stage_counters(stage)["evictions"] += 1
        self._save_stats()

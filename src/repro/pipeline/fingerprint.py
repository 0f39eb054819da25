"""Deterministic fingerprints for pipeline stages and their inputs.

A stage's fingerprint is the sha256 of a *canonical* JSON rendering of
everything that can change its output: the stage name and version, its
configuration parameters, the fingerprints of its upstream stages, and a
global code-format version bumped whenever the meaning of cached artifacts
changes.  Two runs that would compute the same artifact therefore hash to
the same address in the :class:`~repro.pipeline.store.ArtifactStore`, and a
change to *any* upstream config field changes every downstream fingerprint.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from typing import Any

import numpy as np

from repro.errors import ConfigurationError

#: Version of the on-disk artifact format / stage semantics.  Bumping it
#: invalidates every cached artifact (their fingerprints all change).
CODE_FORMAT_VERSION = 1


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable structure.

    Dict keys are emitted sorted by :func:`json.dumps`; tuples and lists
    collapse to lists; dataclasses to their field dicts; numpy scalars to
    Python scalars; floats keep full ``repr`` precision via JSON.  Arrays are
    rejected — hash them explicitly with :func:`array_fingerprint` so large
    buffers never end up inside a JSON payload by accident.
    """
    if isinstance(value, np.ndarray):
        raise ConfigurationError(
            "arrays cannot be fingerprinted implicitly; use array_fingerprint"
        )
    if is_dataclass(value) and not isinstance(value, type):
        return canonical(asdict(value))
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def fingerprint(payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of ``payload``."""
    text = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_array(array: np.ndarray, digest=None):
    """Fold one array's dtype, shape and C-order bytes into ``digest`` (a
    fresh sha256 by default) and return it.  A C-contiguous array, a
    memmap included, is hashed in place, without a heap copy.
    """
    digest = hashlib.sha256() if digest is None else digest
    array = np.asarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(repr(tuple(array.shape)).encode())
    if array.size:
        digest.update(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
    return digest


def array_fingerprint(array: np.ndarray) -> str:
    """Content hash of an array (dtype + shape + raw bytes).

    A 0-d array hashes as shape ``(1,)``; stored addresses depend on it.
    """
    return hash_array(np.atleast_1d(array)).hexdigest()

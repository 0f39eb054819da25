"""Staged execution of Algorithm 1 over a content-addressed artifact store.

The pipeline package decomposes the §3.3 mining → denoise → Q construction
flow and the §3.4 training loop into explicit, fingerprinted
:class:`~repro.pipeline.stages.Stage` steps whose outputs live in an
:class:`~repro.pipeline.store.ArtifactStore`.  Because Q is independent of
the code length, a multi-bit-width sweep mines each dataset once; because
train/encode artifacts persist on disk, an interrupted table run resumes
from its completed (method, n_bits) cells.
"""

from repro.pipeline.fingerprint import (
    CODE_FORMAT_VERSION,
    array_fingerprint,
    canonical,
    fingerprint,
)
from repro.pipeline.stages import (
    BUILD_Q,
    DENOISE,
    ENCODE,
    MINE,
    TRAIN,
    Stage,
    dataset_key,
    run_stage,
)
from repro.pipeline.store import (
    Artifact,
    ArtifactStore,
    content_digest,
    read_archive,
    read_raw_archive,
    write_archive,
    write_raw_archive,
)

__all__ = [
    "Artifact",
    "ArtifactStore",
    "BUILD_Q",
    "CODE_FORMAT_VERSION",
    "DENOISE",
    "ENCODE",
    "MINE",
    "Stage",
    "TRAIN",
    "array_fingerprint",
    "canonical",
    "content_digest",
    "dataset_key",
    "fingerprint",
    "read_archive",
    "read_raw_archive",
    "run_stage",
    "write_archive",
    "write_raw_archive",
]

"""The :class:`Stage` abstraction decomposing Algorithm 1 into cacheable steps.

A stage is a *description* of one pipeline step: a name, a version, the
JSON-able parameters that determine its output, and the fingerprints of its
upstream stages.  The description alone yields a deterministic fingerprint
(:attr:`Stage.fingerprint`); :func:`run_stage` then either replays the
artifact stored under that address or builds and stores it.

Algorithm 1 maps onto five canonical stages:

========  ==================================================================
stage     output
========  ==================================================================
mine      concept distributions D over the candidate set (Eq. 1–2)
denoise   the clean concept set C' + re-mined distributions (Eq. 4–5)
build_q   the semantic similarity matrix Q (Eq. 3 / Eq. 6)
train     the hashing-network state dict + loss history (Eq. 11)
encode    ±1 hash codes for a query/database split
========  ==================================================================

Q depends only on the data + similarity settings, never on ``n_bits`` or
the train config, so every bit width of a sweep shares one mine/denoise/
build_q chain; ``train`` and ``encode`` fingerprints additionally fold in
the model configuration, which is what makes interrupted table runs
resumable per (method, n_bits) cell.

Residency never enters ``Stage.params``: the store picks ``.npz`` or the
memmapped raw format from an artifact's size alone, both hold the same
bits, and a stage replays from the same address whichever format holds
it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.pipeline.fingerprint import CODE_FORMAT_VERSION, fingerprint
from repro.pipeline.store import Artifact, ArtifactStore

#: Canonical Algorithm-1 stage names.
MINE = "mine"
DENOISE = "denoise"
BUILD_Q = "build_q"
TRAIN = "train"
ENCODE = "encode"


@dataclass(frozen=True)
class Stage:
    """A deterministic description of one cacheable pipeline step."""

    name: str
    params: dict = field(default_factory=dict)
    inputs: tuple[str, ...] = ()
    version: int = 1

    @property
    def fingerprint(self) -> str:
        """Address of this stage's artifact in the store."""
        return fingerprint(
            {
                "format": CODE_FORMAT_VERSION,
                "stage": self.name,
                "version": self.version,
                "params": self.params,
                "inputs": list(self.inputs),
            }
        )


#: A stage builder returns the artifact body: ``(meta, arrays)``.
StageBuilder = Callable[[], tuple[dict, "dict[str, np.ndarray]"]]


def run_stage(
    store: ArtifactStore | None, stage: Stage, build: StageBuilder
) -> Artifact:
    """Replay ``stage`` from the store, or build and cache it.

    With ``store=None`` the stage always builds (the uncached execution
    path); the result is still wrapped in an :class:`Artifact` so callers
    are agnostic to where it came from.
    """
    key = stage.fingerprint
    if store is not None:
        cached = store.get(key, stage=stage.name)
        if cached is not None:
            return cached
    meta, arrays = build()
    if store is not None:
        return store.put(key, meta, arrays, stage=stage.name)
    return Artifact(key=key, meta=dict(meta), arrays=dict(arrays))


def dataset_key(
    dataset: str, scale: float, seed: int, split: str = "train"
) -> dict:
    """The provenance payload identifying one deterministic data split.

    ``load_dataset(name, scale, seed)`` is fully deterministic, so these
    four fields (plus the code-format version folded in by every stage)
    are the data's fingerprint — no hashing of image tensors required on
    the hot path.
    """
    if not dataset:
        raise ConfigurationError("dataset name must be non-empty")
    return {
        "dataset": dataset,
        "scale": float(scale),
        "seed": int(seed),
        "split": split,
    }

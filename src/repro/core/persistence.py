"""Save / load fitted hashing models.

A fitted UHSCM is fully described by its configuration, the mined concept
set, the network construction metadata, and the network parameters; this
module serializes all of it to a single archive so a trained model can be
shipped and served without retraining.  The archive format (``__meta__``
JSON + named arrays in one ``.npz``) is the
:mod:`repro.pipeline.store` format — persistence is a thin serialization
client of the same machinery that backs the artifact cache.

Format history:

- **v1** saved only the config + network parameters: ``contrastive`` and
  the mined-vs-injected Q distinction were lost on round trip.
- **v2** records ``contrastive`` and ``concepts_mined``.  Until the
  end-to-end conv network mode was removed, it also recorded
  ``network_mode``, ``conv_profile`` and ``image_size``.  An archive that
  carries them loads when ``network_mode`` is ``"feature"`` (the other two
  keys are ignored) and raises :class:`ConfigurationError` otherwise.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError, NotFittedError
from repro.pipeline import read_archive, write_archive
from repro.vlp.clip import SimCLIP

_FORMAT_VERSION = 2

_PARAM_PREFIX = "param/"


def model_payload(model: UHSCM) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` archive body describing a fitted UHSCM.

    This is the single serialization seam: :func:`save_uhscm` writes it to a
    file, and the serving layer (:func:`repro.serving.publish_model`) puts
    it in an :class:`~repro.pipeline.ArtifactStore` under a content
    fingerprint.  Both round-trip through :func:`restore_uhscm`.
    """
    if model.network is None or model.similarity_ is None:
        raise NotFittedError("cannot save an unfitted UHSCM model")
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(model.config),
        "concepts": list(model.concepts),
        "concepts_mined": bool(model.similarity_.mined),
        "mined_concepts": (
            list(model.similarity_.concepts) if model.similarity_.mined
            else None
        ),
        "contrastive": model.contrastive,
        "world_seed": model.clip.world.config.seed,
    }
    state = model.network.net.state_dict()
    return meta, {f"{_PARAM_PREFIX}{k}": v for k, v in state.items()}


def save_uhscm(model: UHSCM, path: str | Path) -> Path:
    """Serialize a fitted UHSCM model to ``path`` (.npz archive)."""
    meta, arrays = model_payload(model)
    return write_archive(Path(path), meta, arrays)


def restore_uhscm(
    meta: dict, arrays: dict[str, np.ndarray], clip: SimCLIP
) -> UHSCM:
    """Rebuild a fitted UHSCM from a :func:`model_payload` archive body.

    The caller supplies the :class:`SimCLIP` (it owns the world / feature
    extractor, which is configuration, not learned state).  The world seed is
    checked against the one recorded at save time.
    """
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported model format {version!r}: this build reads format "
            f"{_FORMAT_VERSION}; format-1 archives predate the contrastive "
            f"and concepts_mined metadata and must be re-trained and re-saved"
        )
    network_mode = meta.get("network_mode", "feature")
    if network_mode != "feature":
        raise ConfigurationError(
            f"cannot load a {network_mode!r}-mode model: the conv network "
            f"mode was removed; re-train the model in feature mode"
        )
    if meta["world_seed"] != clip.world.config.seed:
        raise ConfigurationError(
            f"model was trained on world seed {meta['world_seed']}, but the "
            f"supplied SimCLIP uses seed {clip.world.config.seed}"
        )

    config_dict = dict(meta["config"])
    config_dict["train"] = TrainConfig(**config_dict["train"])
    # Archives and snapshots saved while the config carried a pool backend,
    # a top-k Q size, an out-of-core flag or a worker count still hold
    # those keys; rebuilding the network needs none of them.
    for legacy in ("pool_backend", "sparse_topk", "out_of_core", "workers"):
        config_dict.pop(legacy, None)
    config = UHSCMConfig(**config_dict)
    model = UHSCM(
        config,
        clip=clip,
        concepts=tuple(meta["concepts"]),
        contrastive=meta["contrastive"],
    )

    # Rebuild the network shell exactly as it was constructed at fit time,
    # then load the trained parameters into it.
    world = clip.world.config
    model.network = model._build_network(
        np.zeros((1, world.channels, world.image_size, world.image_size))
    )
    if config.train.dtype != "float64":
        # A fitted network lives in the training dtype (the trainer casts it
        # at construction); reload into the same dtype for identical codes.
        model.network.to(config.train.dtype)
    model.network.net.load_state_dict(
        {
            key[len(_PARAM_PREFIX):]: value
            for key, value in arrays.items()
            if key.startswith(_PARAM_PREFIX)
        }
    )

    from repro.core.similarity import SimilarityResult

    model.similarity_ = SimilarityResult(
        matrix=np.zeros((0, 0)),
        concepts=tuple(meta["mined_concepts"] or ()),
        mined=bool(meta["concepts_mined"]),
    )
    return model


def load_uhscm(path: str | Path, clip: SimCLIP) -> UHSCM:
    """Reload a model saved by :func:`save_uhscm`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such model file: {path}")
    meta, arrays = read_archive(path)
    return restore_uhscm(meta, arrays, clip)

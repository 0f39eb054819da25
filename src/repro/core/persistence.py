"""Save / load fitted hashing models.

A fitted UHSCM is fully described by its configuration, the mined concept
set, the network construction metadata, and the network parameters; this
module serializes all of it to a single archive so a trained model can be
shipped and served without retraining.  The archive format (``__meta__``
JSON + named arrays in one ``.npz``) is the
:mod:`repro.pipeline.store` format — persistence is a thin serialization
client of the same machinery that backs the artifact cache.

Format history:

- **v1** saved only the config + feature-mode parameters: a conv-mode model
  silently reloaded as a feature-mode network fed mismatched parameters,
  and ``contrastive`` / ``conv_profile`` / the mined-vs-injected Q
  distinction were lost on round trip.
- **v2** records ``network_mode``, ``conv_profile``, ``image_size``,
  ``contrastive``, and ``concepts_mined``, and reconstructs conv networks
  faithfully.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
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
        "network_mode": model.network_mode,
        "conv_profile": model.conv_profile,
        "image_size": model.network.image_size,
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
            f"{_FORMAT_VERSION}; format-1 archives predate the conv-mode and "
            f"contrastive metadata and must be re-trained and re-saved"
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
        network_mode=meta["network_mode"],
        conv_profile=meta["conv_profile"],
        contrastive=meta["contrastive"],
    )

    # Rebuild the network shell exactly as it was constructed at fit time,
    # then load the trained parameters into it.
    if meta["network_mode"] == "conv":
        model.network = HashingNetwork(
            config.n_bits,
            mode="conv",
            image_size=meta["image_size"],
            conv_profile=meta["conv_profile"],
            rng=config.seed,
        )
    else:
        feature_dim = clip.world.backbone_features(
            np.zeros(
                (1, clip.world.config.channels, clip.world.config.image_size,
                 clip.world.config.image_size)
            )
        ).shape[1]
        model.network = HashingNetwork(
            config.n_bits,
            mode="feature",
            feature_extractor=clip.world.backbone_features,
            feature_dim=feature_dim,
            rng=config.seed,
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

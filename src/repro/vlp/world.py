"""The generative *semantic world* grounding the whole simulation.

Everything the reproduction cannot download — CLIP's pretraining, ImageNet
features, the photographic datasets — is replaced by one latent model:

- every canonical concept ``c`` has a unit **latent direction** ``u_c`` in a
  shared semantic space R^D (hypernyms are means of their members, so broad
  concepts genuinely overlap many images);
- an **image** with concept weights ``w`` has latent
  ``z = normalize(Σ w_c u_c) + style-noise`` and pixels ``x = W_render z +
  pixel-noise`` for a fixed orthonormal render matrix;
- the **VLP image encoder** approximately inverts the render (it was
  "pretrained" on this world), and the **VLP text encoder** maps concept
  words near their latent directions with per-word alignment noise.

Because both CLIP-like encoders and the datasets are derived from the same
world, image–text similarity scores carry true-but-noisy concept signal —
exactly the contract UHSCM needs from the real CLIP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, VocabularyError
from repro.utils.hashing import stable_seed
from repro.utils.mathops import l2_normalize
from repro.utils.rng import as_generator, spawn
from repro.vlp.concepts import HYPERNYMS, canonical

#: Image rows of pixel noise :meth:`SemanticWorld.render` draws at a time.
_NOISE_ROWS = 64


@dataclass(frozen=True)
class WorldConfig:
    """Geometry and noise levels of the semantic world.

    Attributes
    ----------
    latent_dim:
        Dimension ``D`` of the shared semantic space.
    image_size / channels:
        Rendered image geometry (pixels = channels * image_size**2 must be
        >= latent_dim so the render can be injective).
    style_dim / style_noise:
        Per-image nuisance (lighting, pose, background texture) lives in a
        fixed ``style_dim``-dimensional subspace of the latent space with
        per-dimension std ``style_noise``.  Confining style to a subspace is
        what lets the two simulated backbones treat it differently.
    instance_noise:
        Scale of the per-image *semantic individuality* component — a random
        full-space direction unique to each image (two cat photos share
        "cat" but differ in everything else).  Unlike style it is NOT
        nuisance: both backbones keep it, and only aggregating over concepts
        (what UHSCM's mining does) averages it away.  This is what separates
        concept-mined similarity from raw feature cosine and from
        instance-discrimination contrastive learning.
    pixel_noise:
        Std of i.i.d. pixel noise added after rendering.
    text_noise:
        Std of the per-word text-alignment offset (CLIP's imperfect
        text-image alignment).
    encoder_noise:
        Magnitude of the image-encoder imperfection mixing matrix.
    clip_style_suppress:
        Fraction of the style component the CLIP image tower removes —
        contrastive text alignment teaches it to ignore nuisance.
    vgg_style_boost:
        Extra style amplification in the simulated VGG features — an
        ImageNet classifier transferred out of domain responds strongly to
        texture/nuisance, which is why its features guide hashing worse
        than mined concepts (the paper's core claim).
    """

    latent_dim: int = 48
    image_size: int = 16
    channels: int = 3
    style_dim: int = 16
    style_noise: float = 0.20
    instance_noise: float = 0.55
    pixel_noise: float = 0.03
    text_noise: float = 0.05
    encoder_noise: float = 0.05
    clip_style_suppress: float = 0.75
    vgg_style_boost: float = 1.3
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.latent_dim <= 0:
            raise ConfigurationError(f"latent_dim must be positive: {self.latent_dim}")
        pixels = self.channels * self.image_size**2
        if pixels < self.latent_dim:
            raise ConfigurationError(
                f"render needs pixels >= latent_dim: {pixels} < {self.latent_dim}"
            )
        for field_name in ("style_noise", "pixel_noise", "text_noise",
                           "encoder_noise"):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be >= 0")

    @property
    def n_pixels(self) -> int:
        return self.channels * self.image_size**2


class SemanticWorld:
    """Ground-truth generative model shared by datasets and SimCLIP.

    The world lazily assigns latent directions to canonical concepts on first
    use, derived deterministically from the concept name and the world seed,
    so any vocabulary (including user-defined concepts) can be grounded
    without pre-registration.
    """

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        master = as_generator(self.config.seed)
        (self._dir_rng, self._render_rng, self._enc_rng,
         self._text_rng) = spawn(master, 4)
        self._directions: dict[str, np.ndarray] = {}
        self._text_offsets: dict[str, np.ndarray] = {}
        # Fixed orthonormal render matrix (n_pixels x latent_dim).
        gaussian = self._render_rng.normal(
            size=(self.config.n_pixels, self.config.latent_dim)
        )
        q, _ = np.linalg.qr(gaussian)
        self._render = q[:, : self.config.latent_dim]
        # Image-encoder imperfection: a fixed near-identity mixing matrix.
        d = self.config.latent_dim
        noise = self._enc_rng.normal(size=(d, d)) * self.config.encoder_noise
        self._encoder_mix = np.eye(d) + noise
        # Fixed orthonormal style subspace (d x style_dim).
        style_gauss = self._enc_rng.normal(size=(d, self.config.style_dim))
        q_style, _ = np.linalg.qr(style_gauss)
        self._style_basis = q_style[:, : self.config.style_dim]

    # -- concept geometry ----------------------------------------------------

    #: Fraction of a member concept's direction shared with its hypernym core
    #: (so e.g. cat·animal ≈ 0.45 and cat·dog ≈ 0.2, mimicking real visual
    #: similarity structure).
    MEMBER_CORE_WEIGHT = 0.45

    def _raw_direction(self, tag: str, canonical_id: str) -> np.ndarray:
        """Deterministic random unit vector keyed by (tag, concept)."""
        gen = np.random.default_rng(stable_seed(self.config.seed, tag, canonical_id))
        return l2_normalize(gen.normal(size=self.config.latent_dim))

    def _member_hypernym(self, canonical_id: str) -> str | None:
        for hyper, members in HYPERNYMS.items():
            if canonical_id in {canonical(m) for m in members}:
                return hyper
        return None

    def concept_direction(self, name: str) -> np.ndarray:
        """Latent direction of a concept surface form (alias-aware).

        Hypernyms (``animal``, ``vehicle``, ...) get a *core* direction;
        member concepts blend that core with a unique component, so the
        hypernym genuinely overlaps every member's images.
        """
        cid = canonical(name)
        if cid in self._directions:
            return self._directions[cid]
        if cid in HYPERNYMS:
            direction = self._raw_direction("core", cid)
        else:
            hyper = self._member_hypernym(cid)
            unique = self._raw_direction("dir", cid)
            if hyper is None:
                direction = unique
            else:
                a = self.MEMBER_CORE_WEIGHT
                core = self._raw_direction("core", hyper)
                direction = l2_normalize(a * core + np.sqrt(1 - a**2) * unique)
        self._directions[cid] = direction
        return direction

    def concept_matrix(self, names: list[str] | tuple[str, ...]) -> np.ndarray:
        """Stack concept directions into an (m, D) matrix."""
        if not names:
            raise VocabularyError("empty concept list")
        return np.stack([self.concept_direction(n) for n in names])

    def text_offset(self, word: str) -> np.ndarray:
        """Fixed per-word text-alignment noise (the text encoder's error)."""
        key = word.strip().lower()
        if key not in self._text_offsets:
            gen = np.random.default_rng(stable_seed(self.config.seed, "text", key))
            self._text_offsets[key] = (
                gen.normal(size=self.config.latent_dim) * self.config.text_noise
            )
        return self._text_offsets[key]

    # -- image generation ------------------------------------------------------

    def image_latent(
        self,
        concept_names: list[str] | tuple[str, ...],
        weights: np.ndarray | None = None,
        rng: int | np.random.Generator | None = None,
        instance_scale: float = 1.0,
    ) -> np.ndarray:
        """Latent vector of an image containing the given concepts.

        ``instance_scale`` multiplies the per-image individuality component
        (datasets with high intra-class diversity pass > 1).  This is the
        one-row case of :meth:`image_latents`.
        """
        dirs = self.concept_matrix(concept_names)
        if weights is None:
            weights = np.ones(len(concept_names))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(concept_names),):
            raise ConfigurationError(
                f"weights shape {weights.shape} != ({len(concept_names)},)"
            )
        ids = np.arange(len(concept_names))[None]
        return self.image_latents(dirs, ids, weights[None], rng=rng,
                                  instance_scale=instance_scale)[0]

    def image_latents(
        self,
        directions: np.ndarray,
        concept_ids: np.ndarray,
        weights: np.ndarray,
        rng: int | np.random.Generator | None = None,
        instance_scale: float = 1.0,
    ) -> np.ndarray:
        """Latents of ``n`` images at once, as ``(n, latent_dim)``.

        Image ``i`` mixes the rows ``directions[concept_ids[i, :k]]`` with
        ``weights[i, :k]``; a row with fewer concepts than the widest pads
        its tail with ``-1`` ids.  Each image draws its instance normals
        and then its style normals from ``rng``, so a batch consumes the
        stream as one image at a time would.  Its bytes match too: images
        are grouped by ``k`` so that each one is still its own
        ``(1, k) @ (k, D)`` mix and ``(D, s) @ (s, 1)`` style product.
        """
        gen = as_generator(rng)
        concept_ids = np.asarray(concept_ids)
        weights = np.asarray(weights, dtype=np.float64)
        counts = (concept_ids >= 0).sum(axis=1)
        if (counts == 0).any():
            raise VocabularyError("every image needs at least one concept")
        d = self.config.latent_dim
        noise = gen.normal(size=(concept_ids.shape[0], d + self.config.style_dim))
        mixed = np.empty((concept_ids.shape[0], d))
        for k in np.unique(counts):
            rows = np.flatnonzero(counts == k)
            mixed[rows] = (
                weights[rows, None, :k] @ directions[concept_ids[rows, :k]]
            )[:, 0]
        semantic = l2_normalize(mixed)
        instance = l2_normalize(noise[:, :d])
        style = (
            self._style_basis @ (noise[:, d:, None] * self.config.style_noise)
        )[:, :, 0]
        instance_amp = self.config.instance_noise * float(instance_scale)
        return semantic + instance_amp * instance + style

    def render(
        self,
        latents: np.ndarray,
        rng: int | np.random.Generator | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Render latent vectors to NCHW images with pixel noise.

        ``out``, a C-contiguous float64 ``(n, channels, size, size)`` array,
        receives the images in place and is returned; the bytes are the
        same as without it.
        """
        gen = as_generator(rng)
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        if latents.shape[1] != self.config.latent_dim:
            raise ConfigurationError(
                f"latents must have {self.config.latent_dim} dims, "
                f"got {latents.shape[1]}"
            )
        n = latents.shape[0]
        c, s = self.config.channels, self.config.image_size
        if out is None:
            out = np.empty((n, c, s, s))
        elif (out.shape != (n, c, s, s) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ConfigurationError(
                f"out must be a C-contiguous float64 array of shape "
                f"{(n, c, s, s)}, got {out.dtype} {out.shape}"
            )
        flat = out.reshape(n, c * s * s)
        np.matmul(latents, self._render.T, out=flat)
        # The noise is the one temporary: drawn _NOISE_ROWS rows at a time,
        # in stream order, it stays small and the draws are unchanged.
        for start in range(0, n, _NOISE_ROWS):
            block = flat[start : start + _NOISE_ROWS]
            noise = gen.normal(size=block.shape)
            noise *= self.config.pixel_noise
            block += noise
        return out

    # -- trainable-backbone equivalent ------------------------------------------

    def backbone_features(self, images: np.ndarray) -> np.ndarray:
        """Inputs for *end-to-end trainable* hashing networks.

        The paper fine-tunes the whole VGG19, so a deep method can extract
        whatever the pixels contain; the equivalent here is the lossless
        render inversion (the render matrix is orthonormal, so these 48
        dimensions carry everything — semantic *and* style).  What separates
        methods is purely the quality of their training guidance.
        """
        return self._recover_latents(images)

    def augment_features(
        self,
        features: np.ndarray,
        rng: int | np.random.Generator | None = None,
        style_strength: float = 0.25,
        iso_strength: float = 0.12,
    ) -> np.ndarray:
        """Semantic-preserving augmentation in backbone-feature space.

        Image augmentations (crop / color jitter / flip) change nuisance but
        not content; the equivalent here is re-jittering the style-subspace
        component plus a little isotropic noise.  Used by the view-based
        contrastive methods (CIB, UHSCM_CL).
        """
        gen = as_generator(rng)
        features = np.asarray(features, dtype=np.float64)
        style_noise = self._style_basis @ (
            gen.normal(size=(self.config.style_dim, features.shape[0]))
            * (self.config.style_noise * style_strength)
        )
        iso = gen.normal(size=features.shape) * iso_strength
        return features + style_noise.T + iso

    # -- the "pretrained VGG19" backbone used by hashing methods ---------------

    #: Output dimension of the simulated VGG feature space.
    VGG_DIM = 96
    #: Strength of the texture/nuisance component mixed into VGG features.
    VGG_TEXTURE_SCALE = 1.5

    def vgg_features(self, images: np.ndarray) -> np.ndarray:
        """Simulated ImageNet-pretrained VGG19 fc7 features.

        The paper feeds these to every baseline and uses them to initialize
        the hashing backbone.  A generic ImageNet CNN carries *weaker,
        nonlinearly-entangled* semantic signal on out-of-domain data than a
        contrastively trained VLP image tower — that asymmetry is the very
        thing UHSCM exploits.  The simulation reproduces it with a fixed
        random mixing + ReLU layer whose inputs blend the recovered latent
        with a *texture* component (a saturated random projection of the raw
        pixels): texture responds to per-image nuisance detail the way an
        ImageNet CNN responds to local patterns, overlapping the class
        clusters while leaving them nonlinearly recoverable.
        """
        raw = self._recover_latents(images)
        style = raw @ self._style_basis @ self._style_basis.T
        boosted = raw + self.config.vgg_style_boost * style
        if not hasattr(self, "_vgg_mix"):
            gen = np.random.default_rng(stable_seed(self.config.seed, "vgg"))
            d = self.config.latent_dim
            self._vgg_mix = gen.normal(size=(self.VGG_DIM, d)) / np.sqrt(d)
            self._vgg_bias = gen.normal(size=self.VGG_DIM) * 0.1
        return np.maximum(boosted @ self._vgg_mix.T + self._vgg_bias, 0.0)

    # -- the "pretrained" inverse used by SimCLIP ------------------------------

    def _recover_latents(self, images: np.ndarray) -> np.ndarray:
        """Raw render inversion shared by both simulated backbones."""
        images = np.asarray(images, dtype=np.float64)
        c, s = self.config.channels, self.config.image_size
        if images.ndim != 4 or images.shape[1:] != (c, s, s):
            raise ConfigurationError(
                f"expected (n, {c}, {s}, {s}) images, got {images.shape}"
            )
        flat = images.reshape(images.shape[0], -1)
        return flat @ self._render

    def encode_pixels(self, images: np.ndarray) -> np.ndarray:
        """Recover latents the way the VLP image tower does.

        ``W_render`` has orthonormal columns so ``W^T x ≈ z``; contrastive
        pretraining taught the tower to *suppress the style subspace*
        (nuisance is useless for matching captions), and the fixed
        near-identity mixing matrix models its residual imperfection.
        """
        recovered = self._recover_latents(images)
        style = recovered @ self._style_basis @ self._style_basis.T
        cleaned = recovered - self.config.clip_style_suppress * style
        return cleaned @ self._encoder_mix.T

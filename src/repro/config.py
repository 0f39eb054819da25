"""Experiment configuration objects.

:class:`UHSCMConfig` collects every hyper-parameter named in the paper
(Sections 3.4, 4.1 and 4.6) with the per-dataset defaults the authors selected
after their sensitivity study:

=============  =====  =====  =====  =====  ======
dataset        α      λ      γ      β      τ
=============  =====  =====  =====  =====  ======
CIFAR10        0.2    0.8    0.2    0.001  3·m
NUS-WIDE       0.1    0.5    0.2    0.001  3·m
MIRFlickr-25K  0.3    0.6    0.5    0.001  3·m
=============  =====  =====  =====  =====  ======

where ``m`` is the number of candidate concepts (τ is stored as the
multiplier ``tau_scale`` so it tracks the concept count automatically).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.errors import ConfigurationError

#: Hash-code lengths evaluated throughout the paper.
PAPER_BIT_LENGTHS: tuple[int, ...] = (32, 64, 96, 128)

#: Default prompt template (paper §3.3.1 / ablation 4.4.3 row "Ours").
DEFAULT_PROMPT_TEMPLATE = "a photo of the {concept}"


#: Training dtypes the nn stack supports (see :attr:`TrainConfig.dtype`).
TRAIN_DTYPES: tuple[str, ...] = ("float64", "float32")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for the hashing network (paper §4.1).

    The paper uses SGD with momentum 0.9, fixed lr 0.006, batch size 128 and
    weight decay 1e-5.  ``epochs`` is scale-dependent; the paper trains to
    convergence, the reproduction default is sized for CPU runs.

    ``dtype`` selects the numeric policy for the whole training stack —
    parameters, activations, losses, and the SGD state are all kept in one
    dtype.  The default ``"float64"`` is bit-stable with the seed
    implementation (deterministic reproductions, tight gradient checks);
    ``"float32"`` trains about 1.7x faster on CPU (1.74x mcl, 1.76x cib
    in ``benchmarks/results/train_scale.txt``: batch 128, 64 bits, a
    128-64-64 head) and tracks the float64 loss trajectory to ~1e-3
    relative (gated by ``benchmarks/bench_train_scale.py``).  Inference
    helpers (``HashingNetwork.encode``) are unaffected: ±1 codes are
    identical in either dtype away from sign boundaries.
    """

    learning_rate: float = 0.006
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 128
    epochs: int = 60
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0: {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError(f"momentum must be in [0, 1): {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0: {self.weight_decay}")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ConfigurationError("batch_size and epochs must be positive")
        if self.dtype not in TRAIN_DTYPES:
            raise ConfigurationError(
                f"dtype must be one of {TRAIN_DTYPES}: {self.dtype!r}"
            )


@dataclass(frozen=True)
class UHSCMConfig:
    """Full UHSCM hyper-parameter set (Eq. 2, Eq. 5, Eq. 11).

    Attributes
    ----------
    n_bits:
        Hash-code length ``k``.
    alpha:
        Weight of the modified contrastive loss ``L_c`` in Eq. 11.
    beta:
        Weight of the quantization loss in Eq. 11.
    gamma:
        Contrastive temperature in Eq. 8.
    lam:
        Similarity threshold λ defining the positive set Ψ_i = {j | q_ij >= λ}.
    tau_scale:
        τ = ``tau_scale · m`` where ``m`` is the candidate-concept count.
        The paper reports both τ = 1m and τ = 3m as optimal (§4.6) and
        selects 3m; this reproduction's score distribution peaks at 1m
        (EXPERIMENTS.md, Figure 4a), so 1m is the default here.
    denoise:
        Apply the Eq. 4–5 concept-denoising step (ablation row 7 turns
        this off).
    sparse_topk:
        When set, Q is built in top-k sparse CSR form (the k strongest
        entries per row plus the diagonal) by the blocked pairwise-cosine
        kernel instead of as a dense (n, n) array — memory drops from
        O(n²) to O(n·k) and training gathers batch blocks from the CSR
        rows.  ``None`` (default) keeps the dense paper-parity path.
        With ``sparse_topk >= n - 1`` the sparse Q is exact; smaller k is
        an approximation that zeroes the weakest similarities.
    out_of_core:
        Execution policy, not a model hyper-parameter: when True (and the
        pipeline runs staged against a disk-backed store with
        ``sparse_topk`` set), the CSR Q is built by the streaming kernel
        directly into on-disk buffers and consumed as memmaps, so the
        largest arrays never reside wholly in RAM.  Outputs are
        bit-identical to the in-memory path, so this flag never enters
        fingerprints.
    workers:
        Execution policy like ``out_of_core``: thread count for the
        sparse Q build's row tiles (the serving layer has its own knob;
        training always runs one loop on the calling thread).  ``None``
        defers to ``$REPRO_WORKERS`` (else serial); ``1`` forces the
        serial fallback.  Every parallel output is bit-identical to
        serial, so this never enters fingerprints either.
    prompt_template:
        Template used to turn a concept into text for the VLP model.
    train:
        Optimization settings.
    seed:
        Master seed controlling network init and batch sampling.
    """

    n_bits: int = 64
    alpha: float = 0.2
    beta: float = 0.001
    gamma: float = 0.2
    lam: float = 0.8
    tau_scale: float = 1.0
    denoise: bool = True
    sparse_topk: int | None = None
    out_of_core: bool = False
    workers: int | None = None
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive: {self.n_bits}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError("alpha and beta must be >= 0")
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0: {self.gamma}")
        if not 0 <= self.lam <= 1:
            raise ConfigurationError(f"lam must be in [0, 1]: {self.lam}")
        if self.tau_scale <= 0:
            raise ConfigurationError(f"tau_scale must be > 0: {self.tau_scale}")
        if self.sparse_topk is not None and self.sparse_topk <= 0:
            raise ConfigurationError(
                f"sparse_topk must be positive (or None): {self.sparse_topk}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1 (or None): {self.workers}"
            )
        if "{concept}" not in self.prompt_template:
            raise ConfigurationError(
                "prompt_template must contain a '{concept}' placeholder: "
                f"{self.prompt_template!r}"
            )

    def with_bits(self, n_bits: int) -> "UHSCMConfig":
        """Copy of this config at a different code length."""
        return replace(self, n_bits=n_bits)

    def fingerprint_payload(self) -> dict:
        """JSON-able form of this config for content fingerprints.

        Omits ``sparse_topk`` when it is None, so every train-stage and
        model-snapshot fingerprint minted before the sparse similarity
        engine existed stays valid (dense runs replay their cached
        artifacts across the upgrade); the key participates only when
        sparsity is actually on.
        """
        payload = asdict(self)
        if payload.get("sparse_topk") is None:
            del payload["sparse_topk"]
        # Residency policy, not math: in-core and out-of-core runs produce
        # bit-identical artifacts, so they must share fingerprints.
        payload.pop("out_of_core", None)
        # Same for worker count — parallel kernels are bit-identical to
        # serial, so any count replays the serial run's artifacts.
        payload.pop("workers", None)
        return payload

    def tau(self, n_concepts: int) -> float:
        """Concrete softmax temperature τ for an ``n_concepts`` vocabulary."""
        if n_concepts <= 0:
            raise ConfigurationError(f"n_concepts must be positive: {n_concepts}")
        return self.tau_scale * n_concepts


def paper_config(dataset: str, n_bits: int = 64, seed: int = 0) -> UHSCMConfig:
    """Per-dataset hyper-parameters, re-validated the way paper §4.6 does.

    The paper selects (α, λ, γ, β) per dataset by sweeping each around its
    optimum; this reproduction repeats that sweep on the simulated data
    (see ``benchmarks/bench_figure4.py``).  CIFAR10 lands on the paper's
    exact values; the multi-label optima shift slightly (smaller γ, λ = 0.5)
    because the simulated score distribution is not identical to real
    CLIP's — EXPERIMENTS.md records the deltas.
    """
    presets = {
        "cifar10": dict(alpha=0.2, lam=0.8, gamma=0.2, beta=0.001),
        "nuswide": dict(alpha=0.2, lam=0.5, gamma=0.15, beta=0.001),
        "mirflickr": dict(alpha=0.3, lam=0.5, gamma=0.1, beta=0.001),
    }
    key = dataset.lower().replace("-", "").replace("_", "")
    aliases = {
        "cifar10": "cifar10",
        "cifar": "cifar10",
        "nuswide": "nuswide",
        "mirflickr": "mirflickr",
        "mirflickr25k": "mirflickr",
    }
    if key not in aliases:
        raise ConfigurationError(
            f"unknown dataset {dataset!r}; expected one of {sorted(set(aliases))}"
        )
    return UHSCMConfig(n_bits=n_bits, seed=seed, **presets[aliases[key]])

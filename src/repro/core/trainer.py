"""UHSCM training loop (paper Algorithm 1, steps 6–12).

Mini-batches are sampled uniformly from the training set; each step forwards
the batch through the hashing network, evaluates the Eq. 11 objective
against the corresponding sub-block of the semantic similarity matrix Q, and
updates the network with SGD (momentum 0.9, lr 0.006, weight decay 1e-5 —
the paper's §4.1 settings, carried by :class:`~repro.config.TrainConfig`).

The whole step runs under the :attr:`TrainConfig.dtype` policy: the network
is cast once at construction and inputs/similarity once per ``fit``, so a
float32 run never round-trips through float64 on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.losses import LossBreakdown, cib_objective, uhscm_objective
from repro.core.similarity_matrix import SimilarityMatrix, as_similarity_matrix
from repro.errors import ConfigurationError
from repro.nn.optim import SGD
from repro.nn.parameter import resolve_dtype
from repro.utils.rng import as_generator


@dataclass
class TrainHistory:
    """Per-epoch averages of every loss term.

    ``batches`` records how many mini-batches actually trained in each epoch
    (batches with fewer than two images are skipped by the pairwise losses).
    An epoch in which *every* batch was skipped raises
    :class:`~repro.errors.ConfigurationError` instead of silently averaging
    an empty list into NaN.
    """

    total: list[float] = field(default_factory=list)
    similarity: list[float] = field(default_factory=list)
    contrastive: list[float] = field(default_factory=list)
    quantization: list[float] = field(default_factory=list)
    batches: list[int] = field(default_factory=list)

    def append_epoch(self, breakdowns: list[LossBreakdown]) -> None:
        if not breakdowns:
            raise ConfigurationError(
                "epoch trained on zero batches: every mini-batch was skipped "
                "(the pairwise losses need at least two images per batch)"
            )
        self.batches.append(len(breakdowns))
        self.total.append(float(np.mean([b.total for b in breakdowns])))
        self.similarity.append(float(np.mean([b.similarity for b in breakdowns])))
        self.contrastive.append(float(np.mean([b.contrastive for b in breakdowns])))
        self.quantization.append(
            float(np.mean([b.quantization for b in breakdowns]))
        )

    @property
    def n_epochs(self) -> int:
        return len(self.total)


class UHSCMTrainer:
    """Optimizes a hashing network against a fixed similarity matrix Q."""

    #: Std of the Gaussian feature augmentation used to build the two views
    #: of the CIB-style contrastive mode (stand-in for image augmentation).
    AUGMENT_STD = 0.1

    def __init__(
        self,
        network: HashingNetwork,
        config: UHSCMConfig,
        rng: int | np.random.Generator | None = None,
        contrastive: str = "mcl",
    ) -> None:
        if contrastive not in ("mcl", "cib"):
            raise ConfigurationError(
                f"contrastive must be 'mcl' or 'cib', got {contrastive!r}"
            )
        self.network = network
        self.config = config
        self.contrastive = contrastive
        self.rng = as_generator(config.seed if rng is None else rng)
        train: TrainConfig = config.train
        self.dtype = resolve_dtype(train.dtype)
        if network.dtype != self.dtype:
            network.to(self.dtype)
        # After the cast, so velocity/scratch inherit the training dtype.
        self.optimizer = SGD(
            network.parameters(),
            learning_rate=train.learning_rate,
            momentum=train.momentum,
            weight_decay=train.weight_decay,
        )

    def fit(
        self,
        inputs: np.ndarray,
        similarity: "np.ndarray | SimilarityMatrix",
        epochs: int | None = None,
    ) -> TrainHistory:
        """Run Algorithm 1's optimization loop.

        Parameters
        ----------
        inputs:
            Network-ready training inputs (features or raw images), length
            n.  A memmap is consumed in place: only each mini-batch's rows
            are copied (and cast) to the heap, so a disk-resident corpus
            trains in O(batch) memory.
        similarity:
            The (n, n) semantic similarity matrix Q — a dense array or any
            :class:`~repro.core.similarity_matrix.SimilarityMatrix` (the
            factored and CSR forms train without ever densifying
            beyond the t×t batch block; their arrays may be memmaps).
        epochs:
            Override for ``config.train.epochs``.
        """
        if not isinstance(inputs, np.memmap):
            # The historical path: one upfront cast.  For a memmap this
            # would materialize the whole corpus on the heap; instead each
            # batch gather below casts its own rows (bit-identical — a
            # dtype cast is elementwise, so cast-then-slice == slice-then-
            # cast).
            inputs = np.asarray(inputs, dtype=self.dtype)
        n = inputs.shape[0]
        if similarity.shape != (n, n):
            raise ConfigurationError(
                f"similarity must be ({n}, {n}), got {similarity.shape}"
            )
        similarity = as_similarity_matrix(similarity).astype(self.dtype)
        epochs = self.config.train.epochs if epochs is None else epochs
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive: {epochs}")
        batch_size = min(self.config.train.batch_size, n)
        step = self._step_mcl if self.contrastive == "mcl" else self._step_cib

        history = TrainHistory()
        self.network.train()
        for _ in range(epochs):
            order = self.rng.permutation(n)
            breakdowns: list[LossBreakdown] = []
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                if idx.size < 2:
                    continue  # pairwise losses need >= 2 images
                # Factored Q multiplies the batch's factor rows, dense Q
                # takes the t² sub-block, sparse Q densifies its stored
                # batch entries into a zero block: only O(t²) is
                # materialized per step.  Fancy indexing copies the input
                # rows to the heap either way; the explicit cast only
                # matters for the memmap path, whose rows still carry the
                # on-disk dtype.
                q_batch = similarity.gather(idx)
                batch = np.asarray(inputs[idx], dtype=self.dtype)
                breakdowns.append(step(batch, q_batch))
            history.append_epoch(breakdowns)
        return history

    def _step_mcl(self, batch: np.ndarray, q_batch: np.ndarray) -> LossBreakdown:
        """One Eq. 11 step with the paper's modified contrastive loss."""
        cfg = self.config
        z = self.network.forward(batch)
        breakdown, grad_z = uhscm_objective(
            z, q_batch,
            alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma, lam=cfg.lam,
        )
        self.optimizer.zero_grad()
        self.network.backward(grad_z)
        self.optimizer.step()
        return breakdown

    def _augment(self, batch: np.ndarray) -> np.ndarray:
        # Draws stay float64 regardless of policy so float32 and float64
        # runs see the same augmentation stream; the arithmetic happens in
        # the training dtype, in place on the fresh noise array.
        noise = self.rng.normal(size=batch.shape).astype(self.dtype, copy=False)
        noise *= self.AUGMENT_STD
        noise += batch
        return noise

    def _step_cib(self, batch: np.ndarray, q_batch: np.ndarray) -> LossBreakdown:
        """One step of the ``UHSCM_CL`` ablation: Eq. 10's J_c replaces L_c.

        Two augmented views share the network; view 1's activation caches
        are captured before view 2's forward, so both backwards run off
        their own forward — 2 forwards + 2 backwards per step (the seed
        re-forwarded view 1 a third time, which also redrew dropout masks
        between a forward and its backward).
        """
        cfg = self.config
        view1 = self._augment(batch)
        view2 = self._augment(batch)
        z1 = self.network.forward(view1)
        view1_cache = self.network.capture_cache()
        z2 = self.network.forward(view2)
        breakdown, grad_z1, grad_z2 = cib_objective(
            z1, z2, q_batch, alpha=cfg.alpha, beta=cfg.beta, gamma=cfg.gamma
        )

        self.optimizer.zero_grad()
        self.network.backward(grad_z2)  # cache holds view2
        self.network.restore_cache(view1_cache)
        self.network.backward(grad_z1)
        self.optimizer.step()
        return breakdown

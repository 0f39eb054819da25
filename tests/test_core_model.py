"""Tests for the hashing network, trainer, UHSCM model, and variants."""

import tracemalloc

import numpy as np
import pytest

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.trainer import UHSCMTrainer
from repro.core.uhscm import UHSCM
from repro.core.variants import VARIANTS, get_variant
from repro.errors import ConfigurationError, NotFittedError
from repro.retrieval import evaluate_hashing
from repro.vlp.concepts import COCO_80, NUS_WIDE_81


def small_config(n_bits=16, **overrides):
    defaults = dict(
        n_bits=n_bits,
        train=TrainConfig(epochs=8, batch_size=40),
        seed=0,
    )
    defaults.update(overrides)
    return UHSCMConfig(**defaults)


class TestHashingNetwork:
    def test_feature_mode(self, world, cifar_tiny):
        net = HashingNetwork(
            8, mode="feature",
            feature_extractor=world.backbone_features,
            feature_dim=world.config.latent_dim,
        )
        codes = net.encode(cifar_tiny.train_images[:10])
        assert codes.shape == (10, 8)
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_backward_skips_the_input_gradient(self, world, cifar_tiny):
        """Training reads only parameter gradients: the first layer forms no
        input gradient, and every parameter gradient keeps the bytes of a
        backward that does."""
        net, full = (HashingNetwork(8, feature_extractor=world.backbone_features,
                                    feature_dim=world.config.latent_dim, rng=3)
                     for _ in range(2))
        full.net[0].needs_input_grad = True
        x = cifar_tiny.train_images[:6]
        grad = np.random.default_rng(0).normal(size=(6, 8))
        inputs = net.prepare_inputs(x)
        for network in (net, full):
            network.forward(inputs)
        assert net.backward(grad) is None
        assert full.net.backward(grad).shape == inputs.shape
        for p, q in zip(net.parameters(), full.parameters(), strict=True):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_validation(self, world):
        with pytest.raises(ConfigurationError):
            HashingNetwork(8, mode="feature")  # missing extractor
        with pytest.raises(ConfigurationError):
            HashingNetwork(8, mode="magic")
        with pytest.raises(ConfigurationError, match="conv .*removed"):
            HashingNetwork(8, mode="conv",
                           feature_extractor=world.backbone_features,
                           feature_dim=world.config.latent_dim)
        with pytest.raises(ConfigurationError):
            HashingNetwork(0, feature_extractor=world.backbone_features,
                           feature_dim=world.config.latent_dim)

    def test_encode_peak_stays_under_one_and_a_half_code_matrices(self):
        # Encoding needs the codes and one batch's activations and signs,
        # about 1.2x the codes here; one more code-sized copy (the relaxed
        # codes beside their signs, a list of batch outputs) makes it 2x.
        net = HashingNetwork(64, mode="feature", feature_extractor=lambda x: x,
                             feature_dim=32, hidden_dims=(32,))
        x = np.random.default_rng(0).normal(size=(20000, 32))
        tracemalloc.start()
        try:
            codes = net.encode(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * codes.nbytes
        assert codes.dtype == np.float64
        np.testing.assert_array_equal(
            codes, np.where(net.relaxed_codes(x) > 0, 1.0, -1.0))


class TestTrainer:
    def _network(self, world):
        return HashingNetwork(
            8, mode="feature",
            feature_extractor=world.backbone_features,
            feature_dim=world.config.latent_dim,
        )

    def test_loss_decreases(self, world, cifar_tiny):
        net = self._network(world)
        config = small_config(n_bits=8)
        trainer = UHSCMTrainer(net, config)
        inputs = net.prepare_inputs(cifar_tiny.train_images)
        labels = cifar_tiny.train_labels.astype(float)
        q = labels @ labels.T  # oracle similarity
        history = trainer.fit(inputs, q)
        assert history.n_epochs == config.train.epochs
        assert history.total[-1] < history.total[0]

    def test_cib_mode_runs(self, world, cifar_tiny):
        net = self._network(world)
        trainer = UHSCMTrainer(net, small_config(n_bits=8), contrastive="cib")
        inputs = net.prepare_inputs(cifar_tiny.train_images[:40])
        q = np.eye(40)
        history = trainer.fit(inputs, q, epochs=2)
        assert history.n_epochs == 2

    def test_bad_contrastive_mode(self, world):
        with pytest.raises(ConfigurationError):
            UHSCMTrainer(self._network(world), small_config(), contrastive="x")

    def test_similarity_shape_check(self, world, cifar_tiny):
        net = self._network(world)
        trainer = UHSCMTrainer(net, small_config(n_bits=8))
        inputs = net.prepare_inputs(cifar_tiny.train_images)
        with pytest.raises(ConfigurationError):
            trainer.fit(inputs, np.eye(3))

    def test_records_batches_per_epoch(self, world, cifar_tiny):
        net = self._network(world)
        trainer = UHSCMTrainer(net, small_config(n_bits=8))
        inputs = net.prepare_inputs(cifar_tiny.train_images)  # n=80, batch=40
        history = trainer.fit(inputs, np.eye(80), epochs=3)
        assert history.batches == [2, 2, 2]

    def test_zero_batch_epoch_raises(self, world, cifar_tiny):
        """n=1 means every mini-batch is skipped; the seed silently averaged
        an empty list into NaN + RuntimeWarning."""
        net = self._network(world)
        trainer = UHSCMTrainer(net, small_config(n_bits=8))
        inputs = net.prepare_inputs(cifar_tiny.train_images[:1])
        with pytest.raises(ConfigurationError, match="zero batches"):
            trainer.fit(inputs, np.eye(1))

    def test_float32_policy_casts_stack(self, world):
        net = self._network(world)
        config = small_config(
            n_bits=8, train=TrainConfig(epochs=2, batch_size=40,
                                        dtype="float32")
        )
        trainer = UHSCMTrainer(net, config)
        assert net.dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in net.parameters())
        assert all(v.dtype == np.float32 for v in trainer.optimizer._velocity)

    @pytest.mark.parametrize("contrastive", ["mcl", "cib"])
    def test_float32_tracks_float64_trajectory(self, world, cifar_tiny,
                                               contrastive):
        """The dtype policy is a throughput knob, not a different model:
        the float32 loss trajectory must track float64 tightly."""
        labels = cifar_tiny.train_labels.astype(float)
        q = labels @ labels.T
        q /= max(q.max(), 1.0)
        np.fill_diagonal(q, 1.0)
        histories = {}
        for dtype in ("float64", "float32"):
            net = self._network(world)
            config = small_config(
                n_bits=8, train=TrainConfig(epochs=4, batch_size=40,
                                            dtype=dtype)
            )
            trainer = UHSCMTrainer(net, config, contrastive=contrastive)
            inputs = net.prepare_inputs(cifar_tiny.train_images)
            histories[dtype] = trainer.fit(inputs, q)
        f64, f32 = histories["float64"], histories["float32"]
        np.testing.assert_allclose(f32.total, f64.total, rtol=1e-3)
        assert abs(f32.total[-1] - f64.total[-1]) <= 1e-3 * abs(f64.total[-1])


class TestUHSCM:
    def test_fit_encode_cycle(self, clip, cifar_tiny):
        model = UHSCM(small_config(), clip=clip)
        model.fit(cifar_tiny.train_images)
        codes = model.encode(cifar_tiny.query_images)
        assert codes.shape == (cifar_tiny.n_query, 16)
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_encode_before_fit_raises(self, clip, cifar_tiny):
        model = UHSCM(small_config(), clip=clip)
        with pytest.raises(NotFittedError):
            model.encode(cifar_tiny.query_images)
        with pytest.raises(NotFittedError):
            _ = model.mined_concepts

    def test_mined_concepts_denoised(self, clip, cifar_tiny):
        model = UHSCM(small_config(), clip=clip)
        model.fit(cifar_tiny.train_images)
        assert 0 < len(model.mined_concepts) < len(NUS_WIDE_81)

    def test_injected_similarity_skips_mining(self, clip, cifar_tiny):
        model = UHSCM(small_config(), clip=clip)
        n = cifar_tiny.n_train
        model.fit(cifar_tiny.train_images, similarity=np.eye(n))
        assert model.mined_concepts == ()

    def test_relaxed_codes_in_range(self, clip, cifar_tiny):
        model = UHSCM(small_config(), clip=clip)
        model.fit(cifar_tiny.train_images)
        z = model.relaxed_codes(cifar_tiny.query_images[:5])
        assert np.all(np.abs(z) <= 1.0)

    def test_beats_random_codes(self, clip, cifar_tiny):
        model = UHSCM(small_config(n_bits=32), clip=clip)
        model.fit(cifar_tiny.train_images)
        report = evaluate_hashing(model, cifar_tiny, pn_points=(10,))
        assert report.map > 0.3  # random ~0.1 on 10 balanced classes


class TestVariants:
    def test_registry_has_15_rows(self):
        assert len(VARIANTS) == 15
        assert "ours" in VARIANTS

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            get_variant("nope")

    def test_coco_variant_uses_coco(self, clip):
        model = get_variant("coco")(small_config(), clip)
        assert model.concepts == COCO_80

    def test_nus_coco_has_153(self, clip):
        model = get_variant("nus&coco")(small_config(), clip)
        assert len(model.concepts) == 153

    def test_wo_mcl_sets_alpha_zero(self, clip):
        model = get_variant("wo_mcl")(small_config(alpha=0.2), clip)
        assert model.config.alpha == 0.0

    def test_wo_de_disables_denoise(self, clip):
        model = get_variant("wo_de")(small_config(), clip)
        assert model.config.denoise is False

    def test_cl_uses_cib_trainer(self, clip):
        model = get_variant("cl")(small_config(), clip)
        assert model.contrastive == "cib"

    def test_prompt_variants_change_template(self, clip):
        p1 = get_variant("p1")(small_config(), clip)
        assert p1.config.prompt_template == "the {concept}"

    @pytest.mark.parametrize("key", ["if", "c20", "avg"])
    def test_variants_fit_and_encode(self, key, clip, cifar_tiny):
        model = get_variant(key)(small_config(n_bits=8), clip)
        model.fit(cifar_tiny.train_images)
        codes = model.encode(cifar_tiny.query_images[:5])
        assert codes.shape == (5, 8)

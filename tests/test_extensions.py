"""Tests for persistence, the CLI, prompt tuning, and the exporter."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.config import TrainConfig, UHSCMConfig
from repro.core.persistence import load_uhscm, save_uhscm
from repro.core.uhscm import UHSCM
from repro.errors import ConfigurationError, NotFittedError
from repro.experiments.export import write_experiments_md
from repro.vlp import SimCLIP, SemanticWorld, WorldConfig
from repro.vlp.prompt_tuning import PromptTuner, tuned_concept_scores


@pytest.fixture()
def fitted_model(clip, cifar_tiny):
    config = UHSCMConfig(n_bits=16, train=TrainConfig(epochs=4), seed=0)
    model = UHSCM(config, clip=clip)
    model.fit(cifar_tiny.train_images)
    return model


class TestPersistence:
    def test_roundtrip_codes_identical(self, fitted_model, clip, cifar_tiny,
                                       tmp_path):
        path = tmp_path / "model.npz"
        save_uhscm(fitted_model, path)
        loaded = load_uhscm(path, clip)
        np.testing.assert_array_equal(
            fitted_model.encode(cifar_tiny.query_images),
            loaded.encode(cifar_tiny.query_images),
        )
        assert loaded.config == fitted_model.config
        assert loaded.mined_concepts == fitted_model.mined_concepts

    def test_unfitted_save_raises(self, clip, tmp_path):
        model = UHSCM(UHSCMConfig(n_bits=8), clip=clip)
        with pytest.raises(NotFittedError):
            save_uhscm(model, tmp_path / "x.npz")

    def test_world_seed_mismatch(self, fitted_model, tmp_path):
        path = tmp_path / "model.npz"
        save_uhscm(fitted_model, path)
        other = SimCLIP(SemanticWorld(WorldConfig(seed=12345)))
        with pytest.raises(ConfigurationError):
            load_uhscm(path, other)

    def test_missing_file(self, clip, tmp_path):
        with pytest.raises(ConfigurationError):
            load_uhscm(tmp_path / "missing.npz", clip)

    def test_conv_mode_roundtrip(self, clip, cifar_tiny, tmp_path):
        """A conv-mode model must reload as a conv network (v1 silently
        rebuilt it as a feature-mode net and fed it mismatched params)."""
        config = UHSCMConfig(n_bits=8, train=TrainConfig(epochs=2), seed=0)
        model = UHSCM(config, clip=clip, network_mode="conv",
                      conv_profile="tiny")
        model.fit(cifar_tiny.train_images[:40])
        path = tmp_path / "conv.npz"
        save_uhscm(model, path)
        loaded = load_uhscm(path, clip)
        assert loaded.network_mode == "conv"
        assert loaded.conv_profile == "tiny"
        assert loaded.network.mode == "conv"
        np.testing.assert_array_equal(
            model.encode(cifar_tiny.query_images),
            loaded.encode(cifar_tiny.query_images),
        )

    def test_contrastive_mode_roundtrips(self, clip, cifar_tiny, tmp_path):
        """A cib-trained model must not reload claiming the default mcl."""
        config = UHSCMConfig(n_bits=8, train=TrainConfig(epochs=2), seed=0)
        model = UHSCM(config, clip=clip, contrastive="cib")
        model.fit(cifar_tiny.train_images)
        path = tmp_path / "cib.npz"
        save_uhscm(model, path)
        loaded = load_uhscm(path, clip)
        assert loaded.contrastive == "cib"
        np.testing.assert_array_equal(
            model.encode(cifar_tiny.query_images),
            loaded.encode(cifar_tiny.query_images),
        )

    def test_injected_similarity_roundtrips_as_not_mined(
        self, clip, cifar_tiny, tmp_path
    ):
        """An injected Q must not masquerade as 'mined zero concepts'."""
        config = UHSCMConfig(n_bits=8, train=TrainConfig(epochs=2), seed=0)
        model = UHSCM(config, clip=clip)
        n = cifar_tiny.train_images.shape[0]
        model.fit(cifar_tiny.train_images, similarity=np.eye(n))
        assert model.concepts_mined is False
        path = tmp_path / "injected.npz"
        save_uhscm(model, path)
        loaded = load_uhscm(path, clip)
        assert loaded.concepts_mined is False
        assert loaded.mined_concepts == ()

    def test_mined_flag_roundtrips_for_real_fits(self, fitted_model, clip,
                                                 tmp_path):
        path = tmp_path / "mined.npz"
        save_uhscm(fitted_model, path)
        loaded = load_uhscm(path, clip)
        assert loaded.concepts_mined is True
        assert loaded.mined_concepts == fitted_model.mined_concepts

    @pytest.mark.parametrize("key, value", [
        ("pool_backend", "process"),
        ("sparse_topk", 8),
        ("out_of_core", True),
        ("workers", 4),
    ])
    def test_archive_with_legacy_config_key_loads(
        self, fitted_model, clip, cifar_tiny, tmp_path, key, value
    ):
        # Archives written while the config still carried one of these
        # fields hold its key; rebuilding the network needs none of them,
        # so loading drops it.
        from repro.core.persistence import model_payload
        from repro.pipeline import write_archive

        meta, arrays = model_payload(fitted_model)
        meta["config"][key] = value
        path = tmp_path / "legacy.npz"
        write_archive(path, meta, arrays)
        loaded = load_uhscm(path, clip)
        np.testing.assert_array_equal(
            fitted_model.encode(cifar_tiny.query_images),
            loaded.encode(cifar_tiny.query_images),
        )
        assert loaded.config == fitted_model.config

    def test_old_format_rejected_with_clear_error(self, clip, tmp_path):
        from repro.pipeline import write_archive

        path = tmp_path / "old.npz"
        write_archive(path, {"format_version": 1, "world_seed": 99}, {})
        with pytest.raises(ConfigurationError, match="format"):
            load_uhscm(path, clip)


class TestPromptTuning:
    def test_improves_objective(self, clip, cifar_tiny):
        tuner = PromptTuner(clip, n_steps=15)
        concepts = ("cat", "dog", "bird", "horse", "truck", "boats")
        tuned = tuner.fit(cifar_tiny.train_images[:40], concepts)
        assert tuned.history[-1] > tuned.history[0]
        assert tuned.context.shape == (clip.world.config.latent_dim,)

    def test_tuned_scores_valid(self, clip, cifar_tiny):
        tuner = PromptTuner(clip, n_steps=5)
        concepts = ("cat", "dog", "bird")
        tuned = tuner.fit(cifar_tiny.train_images[:20], concepts)
        scores = tuned_concept_scores(clip, cifar_tiny.query_images[:10],
                                      concepts, tuned)
        assert scores.shape == (10, 3)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_sharpens_distributions(self, clip, cifar_tiny):
        """Tuning should increase the mean top-score margin it optimizes."""
        concepts = ("cat", "dog", "bird", "horse", "truck")
        images = cifar_tiny.train_images[:40]
        base = clip.score_concepts(images, concepts)
        tuner = PromptTuner(clip, n_steps=25)
        tuned = tuner.fit(images, concepts)
        new = tuned_concept_scores(clip, images, concepts, tuned)

        def margin(s):
            return float((s.max(axis=1) - s.mean(axis=1)).mean())

        assert margin(new) >= margin(base) - 1e-6

    def test_validation(self, clip, cifar_tiny):
        with pytest.raises(ConfigurationError):
            PromptTuner(clip, n_steps=0)
        with pytest.raises(ConfigurationError):
            PromptTuner(clip).fit(cifar_tiny.train_images[:5], ())


class TestExport:
    def test_writes_sections(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1.txt").write_text("TABLE1 CONTENT")
        out = tmp_path / "EXPERIMENTS.md"
        text = write_experiments_md(results, out)
        assert out.exists()
        assert "TABLE1 CONTENT" in text
        assert "not yet generated" in text  # missing sections marked


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--scale", "0.01", "--bits", "16"])
        assert args.scale == 0.01 and args.bits == [16]

    def test_export_command(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        out = tmp_path / "EXPERIMENTS.md"
        code = main(["export", "--results", str(results), "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_train_and_eval_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "m.npz"
        code = main([
            "train", "--dataset", "cifar10", "--scale", "0.008",
            "--bits", "16", "--out", str(model_path), "--seed", "1",
        ])
        assert code == 0 and model_path.exists()
        code = main([
            "eval", "--dataset", "cifar10", "--scale", "0.008",
            "--model", str(model_path), "--seed", "1",
        ])
        assert code == 0
        assert "MAP" in capsys.readouterr().out

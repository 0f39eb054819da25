"""Tests for the configuration objects."""

import pytest

from repro.config import (
    PAPER_BIT_LENGTHS,
    TrainConfig,
    UHSCMConfig,
    paper_config,
)
from repro.errors import ConfigurationError


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == pytest.approx(0.006)
        assert cfg.momentum == pytest.approx(0.9)
        assert cfg.weight_decay == pytest.approx(1e-5)
        assert cfg.batch_size == 128
        assert cfg.dtype == "float64"  # bit-stable default; float32 opt-in

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"weight_decay": -1.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"dtype": "float16"},
            {"dtype": "double"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)


class TestUHSCMConfig:
    def test_with_bits(self):
        cfg = UHSCMConfig(n_bits=32).with_bits(128)
        assert cfg.n_bits == 128

    def test_tau(self):
        cfg = UHSCMConfig(tau_scale=3.0)
        assert cfg.tau(81) == pytest.approx(243.0)
        with pytest.raises(ConfigurationError):
            cfg.tau(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bits": 0},
            {"alpha": -0.1},
            {"gamma": 0.0},
            {"lam": 1.5},
            {"tau_scale": 0.0},
            {"prompt_template": "no placeholder"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            UHSCMConfig(**kwargs)

    def test_paper_bit_lengths(self):
        assert PAPER_BIT_LENGTHS == (32, 64, 96, 128)

    def test_default_config_cache_address_is_pinned(self):
        # Train-stage and published-model keys hash the config, so a
        # change here silently orphans every cached artifact.
        from repro.pipeline import fingerprint

        assert fingerprint(UHSCMConfig()) == (
            "82268c396f9d938f92ea13aee436b6b7a2dc9664f6cbbe7c70f9d8ae3c89f259"
        )


class TestPaperConfig:
    @pytest.mark.parametrize("name", ["cifar10", "CIFAR", "nus-wide", "MIRFlickr-25K"])
    def test_aliases(self, name):
        cfg = paper_config(name, n_bits=96)
        assert cfg.n_bits == 96

    def test_cifar_matches_paper(self):
        cfg = paper_config("cifar10")
        assert (cfg.alpha, cfg.lam, cfg.gamma, cfg.beta) == (0.2, 0.8, 0.2, 0.001)

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            paper_config("imagenet")

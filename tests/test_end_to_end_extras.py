"""Additional cross-module behaviours: the evaluate_hashing wrapper,
instance-diversity effects, and CLI table commands."""

import numpy as np
import pytest

from repro.cli import main
from repro.config import TrainConfig, UHSCMConfig
from repro.core.uhscm import UHSCM
from repro.datasets import SplitSizes, dataset_spec, generate_dataset
from repro.datasets.synthetic import DatasetSpec
from repro.retrieval import evaluate_hashing
from repro.vlp import SemanticWorld, WorldConfig


class TestEvaluateHashingWrapper:
    def test_wraps_model_encode(self, clip, cifar_tiny):
        config = UHSCMConfig(n_bits=16, train=TrainConfig(epochs=3))
        model = UHSCM(config, clip=clip)
        model.fit(cifar_tiny.train_images)
        report = evaluate_hashing(model, cifar_tiny, pn_points=(5, 20))
        assert report.n_bits == 16
        assert set(report.precision_at_n) == {5, 20}
        assert report.pr_curve.radii.size == 17


class TestInstanceDiversity:
    def test_higher_instance_scale_lowers_feature_similarity(self):
        """The DatasetSpec.instance_scale knob behind CIFAR's difficulty."""
        world = SemanticWorld(WorldConfig(seed=21))
        sizes = SplitSizes(train=60, query=30, database=120)

        def same_class_cos(instance_scale):
            spec = DatasetSpec(
                name="x",
                class_names=("cat", "dog"),
                class_probs=(0.5, 0.5),
                single_label=True,
                instance_scale=instance_scale,
            )
            data = generate_dataset(spec, sizes, world=world, seed=1)
            feats = data.world.encode_pixels(data.train_images)
            feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            labels = data.train_labels.argmax(axis=1)
            same = labels[:, None] == labels[None, :]
            np.fill_diagonal(same, False)
            return (feats @ feats.T)[same].mean()

        assert same_class_cos(0.5) > same_class_cos(2.5)


class TestDatasetBackground:
    def test_background_concept_not_in_labels(self, nuswide_tiny):
        """'sun' is image content but never an evaluation label."""
        assert "sun" not in nuswide_tiny.class_names

    def test_background_visible_to_vlp(self, clip, nuswide_tiny):
        scores = clip.score_concepts(nuswide_tiny.train_images, ["sun"])
        baseline = clip.score_concepts(nuswide_tiny.train_images, ["computer"])
        assert scores.mean() > baseline.mean()


class TestCliTables:
    def test_table1_command(self, capsys):
        code = main([
            "table1", "--scale", "0.008", "--bits", "16",
            "--dataset", "cifar10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "UHSCM" in out and "LSH" in out

    def test_table2_command(self, capsys):
        code = main(["table2", "--scale", "0.008", "--bits", "16"])
        assert code == 0
        assert "ours" in capsys.readouterr().out

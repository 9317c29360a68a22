"""Unit tests for the synthetic dataset and the soft-max model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import TrainingError
from repro.mlsys.datasets import (
    NUM_PIXELS,
    Dataset,
    SyntheticMnistSpec,
    generate_synthetic_mnist,
)
from repro.mlsys.model import SoftmaxModel, softmax


class TestSyntheticMnist:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic_mnist(num_samples=1_000, seed=7)

    def test_shapes_and_types(self, dataset):
        assert dataset.images.shape == (1_000, NUM_PIXELS)
        assert dataset.labels.shape == (1_000,)
        assert dataset.num_features == NUM_PIXELS
        assert set(np.unique(dataset.labels)) <= set(range(10))

    def test_pixel_values_in_range(self, dataset):
        assert dataset.images.min() >= 0.0
        assert dataset.images.max() <= 1.0

    def test_activation_spectrum_is_mnist_like(self, dataset):
        freq = (dataset.images > 0).mean(axis=0)
        never_active = float((freq == 0).mean())
        commonly_active = float((freq > 0.5).mean())
        assert 0.15 <= never_active <= 0.45, "border/corner pixels should be silent"
        assert 0.2 <= commonly_active <= 0.5, "a central core should be almost always on"

    def test_images_are_sparse(self, dataset):
        per_image_active = (dataset.images > 0).mean(axis=1)
        assert 0.1 <= per_image_active.mean() <= 0.6

    def test_sharding_partitions_samples(self, dataset):
        shards = [dataset.shard(4, i) for i in range(4)]
        assert sum(len(s) for s in shards) == len(dataset)
        with pytest.raises(TrainingError):
            dataset.shard(4, 4)

    def test_minibatch_sampling(self, dataset):
        rng = np.random.default_rng(0)
        images, labels = dataset.minibatch(16, rng)
        assert images.shape == (16, NUM_PIXELS)
        assert labels.shape == (16,)
        with pytest.raises(TrainingError):
            dataset.minibatch(0, rng)

    def test_deterministic_given_seed(self):
        a = generate_synthetic_mnist(num_samples=50, seed=42)
        b = generate_synthetic_mnist(num_samples=50, seed=42)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_specs_rejected(self):
        with pytest.raises(TrainingError):
            SyntheticMnistSpec(num_samples=0)
        with pytest.raises(TrainingError):
            SyntheticMnistSpec(shared_fraction=1.5)
        with pytest.raises(TrainingError):
            SyntheticMnistSpec(core_radius=20.0, max_radius=10.0)

    def test_mismatched_labels_rejected(self):
        with pytest.raises(TrainingError):
            Dataset(images=np.zeros((10, 4)), labels=np.zeros(9, dtype=int))


class TestSoftmaxModel:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((5, 10))
        proba = softmax(logits)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_gradient_shapes(self):
        model = SoftmaxModel(num_features=20, num_classes=4)
        images = np.random.default_rng(1).random((6, 20))
        labels = np.array([0, 1, 2, 3, 0, 1])
        update = model.gradients(images, labels)
        assert update.gradients["W"].shape == (20, 4)
        assert update.gradients["b"].shape == (4,)

    def test_gradient_rows_zero_for_unused_features(self):
        model = SoftmaxModel(num_features=6, num_classes=3)
        images = np.array([[1.0, 0.0, 0.5, 0.0, 0.0, 0.0]])
        labels = np.array([1])
        update = model.gradients(images, labels)
        grad_w = update.gradients["W"]
        assert np.all(grad_w[[1, 3, 4, 5], :] == 0.0)
        assert np.any(grad_w[0, :] != 0.0)

    def test_gradient_matches_numerical_estimate(self):
        rng = np.random.default_rng(3)
        model = SoftmaxModel(num_features=5, num_classes=3, seed=1)
        images = rng.random((4, 5))
        labels = np.array([0, 1, 2, 1])
        update = model.gradients(images, labels)
        epsilon = 1e-6
        w = model.parameters["W"]
        for index in [(0, 0), (2, 1), (4, 2)]:
            original = w[index]
            w[index] = original + epsilon
            loss_plus = model.loss(images, labels)
            w[index] = original - epsilon
            loss_minus = model.loss(images, labels)
            w[index] = original
            numerical = (loss_plus - loss_minus) / (2 * epsilon)
            assert update.gradients["W"][index] == pytest.approx(numerical, rel=1e-4, abs=1e-6)

    def test_loss_decreases_with_training_signal(self):
        rng = np.random.default_rng(5)
        model = SoftmaxModel(num_features=10, num_classes=3, seed=2)
        images = rng.random((64, 10))
        labels = (images[:, 0] > 0.5).astype(int)
        initial_loss = model.loss(images, labels)
        for _ in range(50):
            update = model.gradients(images, labels)
            for name, grad in update.gradients.items():
                model.parameters[name] -= 0.5 * grad
        assert model.loss(images, labels) < initial_loss
        assert model.accuracy(images, labels) > 0.6

    def test_parameter_roundtrip_and_validation(self):
        model = SoftmaxModel(num_features=4, num_classes=2)
        params = model.get_parameters()
        params["W"][0, 0] = 123.0
        model.set_parameters(params)
        assert model.parameters["W"][0, 0] == 123.0
        with pytest.raises(TrainingError):
            model.set_parameters({"unknown": np.zeros(2)})
        with pytest.raises(TrainingError):
            model.set_parameters({"b": np.zeros(5)})

    def test_empty_minibatch_rejected(self):
        model = SoftmaxModel(num_features=4, num_classes=2)
        with pytest.raises(TrainingError):
            model.gradients(np.zeros((0, 4)), np.zeros(0, dtype=int))

    def test_update_sparsity_helpers(self):
        model = SoftmaxModel(num_features=6, num_classes=2)
        images = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        update = model.gradients(images, np.array([0]))
        assert np.count_nonzero(update.gradients["W"]) / update.gradients["W"].size == pytest.approx(1 / 6)
        assert set(update.touched_indices("W")) == {0, 1}

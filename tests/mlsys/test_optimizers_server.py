"""Unit tests for the optimizers, the parameter server and sparse updates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TrainingError
from repro.mlsys.model import GradientUpdate, SoftmaxModel
from repro.mlsys.optimizers import SGD, Adam, make_optimizer
from repro.mlsys.parameter_server import ParameterServer
from repro.mlsys.sparse import (
    from_key_value_pairs,
    sparsify,
    to_key_value_pairs,
)


def make_update(values: np.ndarray, worker_id: int = 0) -> GradientUpdate:
    return GradientUpdate(gradients={"w": values.astype(float)}, num_samples=1, worker_id=worker_id)


class TestOptimizers:
    def test_sgd_step(self):
        params = {"w": np.array([1.0, 2.0])}
        SGD(learning_rate=0.5).apply(params, {"w": np.array([2.0, -2.0])})
        assert params["w"] == pytest.approx([0.0, 3.0])

    def test_sgd_rejects_unknown_tensor(self):
        with pytest.raises(TrainingError):
            SGD().apply({"w": np.zeros(2)}, {"v": np.zeros(2)})

    def test_adam_moves_against_gradient_sign(self):
        params = {"w": np.zeros(3)}
        adam = Adam(learning_rate=0.1)
        for _ in range(10):
            adam.apply(params, {"w": np.array([1.0, -1.0, 0.0])})
        assert params["w"][0] < 0
        assert params["w"][1] > 0
        assert params["w"][2] == pytest.approx(0.0)

    def test_adam_bias_correction_first_step(self):
        params = {"w": np.array([0.0])}
        Adam(learning_rate=0.001).apply(params, {"w": np.array([0.5])})
        # After bias correction the first step has magnitude ~learning_rate.
        assert abs(params["w"][0]) == pytest.approx(0.001, rel=1e-3)

    def test_factory(self):
        assert isinstance(make_optimizer("sgd"), SGD)
        assert isinstance(make_optimizer("Adam"), Adam)
        with pytest.raises(TrainingError):
            make_optimizer("rmsprop")

    def test_invalid_hyperparameters(self):
        with pytest.raises(TrainingError):
            SGD(learning_rate=0.0)
        with pytest.raises(TrainingError):
            Adam(beta1=1.0)


class TestParameterServer:
    def test_push_aggregates_and_applies(self):
        server = ParameterServer({"w": np.zeros(3)}, SGD(learning_rate=1.0))
        stats = server.push(
            [make_update(np.array([1.0, 0.0, 0.0]), 0), make_update(np.array([1.0, 2.0, 0.0]), 1)]
        )
        # Sum = [2, 2, 0]; averaged over 2 workers = [1, 1, 0]; SGD step of 1.0.
        assert server.parameters()["w"] == pytest.approx([-1.0, -1.0, 0.0])
        assert stats.elements_received == 3
        assert stats.unique_elements == 2
        assert stats.reduction_ratio == pytest.approx(1 / 3)

    def test_pull_returns_copies(self):
        server = ParameterServer({"w": np.zeros(2)}, SGD())
        snapshot = server.pull()
        snapshot["w"][0] = 99.0
        assert server.parameters()["w"][0] == 0.0

    def test_push_validates_shapes_and_names(self):
        server = ParameterServer({"w": np.zeros(2)}, SGD())
        with pytest.raises(TrainingError):
            server.push([make_update(np.zeros(3))])
        with pytest.raises(TrainingError):
            server.push([GradientUpdate(gradients={"v": np.zeros(2)}, num_samples=1)])
        with pytest.raises(TrainingError):
            server.push([])

    def test_traffic_series_tracks_steps(self):
        server = ParameterServer({"w": np.zeros(4)}, SGD())
        for _ in range(3):
            server.push([make_update(np.array([1.0, 1.0, 0.0, 0.0]))])
        assert server.steps_applied == 3
        assert len(server.traffic_reduction_series()) == 3

    def test_equivalence_of_aggregation_location(self):
        """Summing updates before the optimizer equals in-network aggregation."""
        rng = np.random.default_rng(0)
        updates = [make_update(rng.standard_normal(5), i) for i in range(4)]
        server_a = ParameterServer({"w": np.zeros(5)}, SGD(learning_rate=0.3))
        server_a.push(updates)
        # "In-network" path: a single pre-summed update divided by the worker
        # count gives the identical result.
        summed = np.sum([u.gradients["w"] for u in updates], axis=0)
        server_b = ParameterServer({"w": np.zeros(5)}, SGD(learning_rate=0.3))
        server_b.push([GradientUpdate(gradients={"w": summed / 4 * 4}, num_samples=4)])
        # server_b received one update, so the internal averaging divides by 1;
        # compensate by scaling: sum/4*4 / 1 worker == sum, so divide by 4 first.
        server_c = ParameterServer({"w": np.zeros(5)}, SGD(learning_rate=0.3))
        server_c.push([GradientUpdate(gradients={"w": summed / 4}, num_samples=4)])
        assert server_c.parameters()["w"] == pytest.approx(server_a.parameters()["w"])


class TestSparseUpdates:
    def test_sparsify_keeps_every_non_zero_element(self):
        model = SoftmaxModel(num_features=8, num_classes=3)
        images = np.zeros((2, 8))
        images[0, 1] = 0.7
        images[1, 4] = 0.2
        update = model.gradients(images, np.array([0, 1]))
        sparse = sparsify(update)
        for name, grad in update.gradients.items():
            dense = np.zeros(grad.size)
            dense[sparse.tensors[name].indices] = sparse.tensors[name].values
            assert np.allclose(dense.reshape(grad.shape), grad)

    def test_key_value_round_trip_preserves_sums(self):
        model = SoftmaxModel(num_features=6, num_classes=2)
        images = np.zeros((1, 6))
        images[0, 2] = 1.0
        update = model.gradients(images, np.array([1]))
        sparse = sparsify(update)
        pairs = to_key_value_pairs(sparse)
        shapes = {name: grad.shape for name, grad in update.gradients.items()}
        recovered = from_key_value_pairs(pairs, shapes)
        for name in shapes:
            assert np.allclose(recovered[name], update.gradients[name], atol=1e-4)

    def test_key_format_fits_daiet_keys(self):
        model = SoftmaxModel(num_features=784, num_classes=10)
        images = np.random.default_rng(0).random((3, 784))
        update = model.gradients(images, np.array([0, 1, 2]))
        pairs = to_key_value_pairs(sparsify(update))
        assert all(len(key) <= 16 for key, _ in pairs)

    def test_malformed_keys_rejected(self):
        with pytest.raises(TrainingError):
            from_key_value_pairs([("nocolon", 1)], {"W": (2, 2)})
        with pytest.raises(TrainingError):
            from_key_value_pairs([("W:99", 1)], {"W": (2, 2)})

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_sparsify_drops_only_zeros(self, values):
        array = np.array(values)
        update = GradientUpdate(gradients={"t": array}, num_samples=1)
        sparse = sparsify(update)
        assert len(sparse.tensors["t"].indices) == int(np.count_nonzero(array))

"""Unit and integration tests for the overlap metric and distributed training."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.errors import TrainingError
from repro.mlsys.model import GradientUpdate
from repro.mlsys import training
from repro.mlsys.overlap import OverlapSeries, measure_step_overlap
from repro.mlsys.training import (
    DistributedTrainingJob,
    TrainingConfig,
    measure_convergence_impact,
    run_overlap_experiment,
)
from repro.mlsys.worker import Worker


def update_from_mask(mask: list[int], size: int = 10, worker_id: int = 0) -> GradientUpdate:
    grad = np.zeros(size)
    grad[mask] = 1.0
    return GradientUpdate(gradients={"t": grad}, num_samples=1, worker_id=worker_id, step=0)


class TestOverlapMetric:
    def test_disjoint_updates_have_zero_overlap(self):
        updates = [update_from_mask([0, 1]), update_from_mask([2, 3], worker_id=1)]
        step = measure_step_overlap(updates)
        assert step.overlap_percent == 0.0
        assert step.union_elements == 4
        assert step.multi_worker_elements == 0

    def test_identical_updates_overlap_fully_under_union(self):
        updates = [update_from_mask([0, 1, 2]), update_from_mask([0, 1, 2], worker_id=1)]
        step = measure_step_overlap(updates, denominator="union")
        assert step.overlap_percent == pytest.approx(100.0)

    def test_all_denominator_counts_every_element(self):
        updates = [update_from_mask([0, 1, 2, 3, 4]), update_from_mask([0, 1, 2, 3, 4], worker_id=1)]
        step = measure_step_overlap(updates, denominator="all")
        assert step.overlap_percent == pytest.approx(50.0)
        assert step.total_elements == 10

    def test_partial_overlap(self):
        updates = [update_from_mask([0, 1, 2]), update_from_mask([2, 3], worker_id=1)]
        step = measure_step_overlap(updates, denominator="union")
        assert step.overlap_percent == pytest.approx(25.0)
        assert step.traffic_reduction == pytest.approx(1 - 4 / 5)

    def test_tensor_subset_selection(self):
        grad_a = {"t": np.array([1.0, 0.0]), "u": np.array([1.0, 1.0])}
        grad_b = {"t": np.array([1.0, 0.0]), "u": np.array([0.0, 0.0])}
        updates = [
            GradientUpdate(gradients=grad_a, num_samples=1, worker_id=0),
            GradientUpdate(gradients=grad_b, num_samples=1, worker_id=1),
        ]
        only_t = measure_step_overlap(updates, tensors=["t"], denominator="all")
        assert only_t.overlap_percent == pytest.approx(50.0)

    def test_validation_errors(self):
        with pytest.raises(TrainingError):
            measure_step_overlap([])
        with pytest.raises(TrainingError):
            measure_step_overlap([update_from_mask([0])], denominator="median")

    def test_series_statistics(self):
        series = OverlapSeries(optimizer="sgd", batch_size=3, num_workers=5)
        with pytest.raises(TrainingError):
            series.average()
        for updates in ([update_from_mask([0]), update_from_mask([0], worker_id=1)],
                        [update_from_mask([1]), update_from_mask([2], worker_id=1)]):
            series.append(measure_step_overlap(updates, denominator="all"))
        assert series.minimum() == 0.0
        assert series.maximum() == pytest.approx(10.0)
        assert series.average() == pytest.approx(5.0)


class TestWorker:
    def test_worker_computes_updates_from_its_shard(self, tiny_dataset):
        worker = Worker(worker_id=0, dataset=tiny_dataset.shard(5, 0), batch_size=4, seed=1)
        params = worker.model.get_parameters()
        update = worker.compute_update(params, step=3)
        assert update.worker_id == 0
        assert update.step == 3
        assert update.gradients["W"].shape == (784, 10)
        assert worker.steps_computed == 1

    def test_worker_validation(self, tiny_dataset):
        with pytest.raises(TrainingError):
            Worker(worker_id=-1, dataset=tiny_dataset, batch_size=4)
        with pytest.raises(TrainingError):
            Worker(worker_id=0, dataset=tiny_dataset, batch_size=0)


class TestDistributedTraining:
    def test_paper_configs(self):
        sgd = TrainingConfig.paper_sgd()
        adam = TrainingConfig.paper_adam()
        assert (sgd.optimizer, sgd.batch_size) == ("sgd", 3)
        assert (adam.optimizer, adam.batch_size) == ("adam", 100)

    def test_invalid_config(self):
        with pytest.raises(TrainingError):
            TrainingConfig(num_workers=0)
        with pytest.raises(TrainingError):
            TrainingConfig(num_steps=0)

    def test_short_run_produces_overlap_series(self, tiny_dataset):
        config = TrainingConfig(optimizer="sgd", batch_size=3, num_workers=3, num_steps=5, seed=1)
        result = DistributedTrainingJob(config, dataset=tiny_dataset).run()
        assert len(result.overlap.steps) == 5
        assert len(result.server_traffic_reduction) == 5
        assert 0.0 <= result.average_overlap() <= 100.0

    def test_adam_overlap_exceeds_sgd_overlap(self, tiny_dataset):
        sgd = run_overlap_experiment("sgd", batch_size=3, num_steps=8, dataset=tiny_dataset)
        adam = run_overlap_experiment("adam", batch_size=100, num_steps=8, dataset=tiny_dataset)
        assert adam.average_overlap() > sgd.average_overlap() + 10.0

    def test_overlap_grows_with_worker_count(self, tiny_dataset):
        two = run_overlap_experiment("sgd", batch_size=3, num_steps=8, num_workers=2,
                                     dataset=tiny_dataset)
        five = run_overlap_experiment("sgd", batch_size=3, num_steps=8, num_workers=5,
                                      dataset=tiny_dataset)
        assert five.average_overlap() > two.average_overlap()

    def test_adam_training_reduces_loss(self, tiny_dataset):
        config = TrainingConfig(optimizer="adam", batch_size=64, num_workers=3, num_steps=40,
                                seed=1)
        result = DistributedTrainingJob(config, dataset=tiny_dataset).run()
        assert result.losses[-1] < result.losses[0]
        assert result.final_accuracy > 0.2

    def test_convergence_twins_share_one_dataset(self, tiny_dataset, monkeypatch):
        generated = []

        def generate(**overrides):
            generated.append(overrides)
            return tiny_dataset

        monkeypatch.setattr(training, "generate_synthetic_mnist", generate)
        config = TrainingConfig(optimizer="sgd", batch_size=3, num_workers=3, num_steps=5, seed=1)
        impact = measure_convergence_impact(config, drop_rate=0.5, drop_seed=3)
        assert generated == [{"seed": 1}]
        exact = DistributedTrainingJob(replace(config), dataset=tiny_dataset).run()
        assert impact.exact_final_loss == exact.losses[-1]
        assert impact.updates_dropped > 0

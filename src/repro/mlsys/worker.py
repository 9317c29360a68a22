"""Data-parallel training worker.

Each worker holds a shard of the training data and a local model replica. At
every synchronous step it pulls the shared parameters, samples a mini-batch
from its shard, computes the gradients and pushes them to the parameter
server — the communication pattern whose overlap Figure 1(a,b) studies.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import TrainingError
from repro.mlsys.datasets import Dataset
from repro.mlsys.model import GradientUpdate, SoftmaxModel


class Worker:
    """One data-parallel worker process."""

    def __init__(
        self,
        worker_id: int,
        dataset: Dataset,
        batch_size: int,
        seed: int = 0,
        host: str | None = None,
    ) -> None:
        if worker_id < 0:
            raise TrainingError("worker_id must be non-negative")
        if batch_size <= 0:
            raise TrainingError("batch_size must be positive")
        if len(dataset) == 0:
            raise TrainingError(f"worker {worker_id} received an empty data shard")
        self.worker_id = worker_id
        self.dataset = dataset
        self.batch_size = batch_size
        self.host = host or f"worker{worker_id}"
        self._rng = np.random.default_rng(seed + worker_id * 7919)
        self.model = SoftmaxModel(
            num_features=dataset.num_features,
            num_classes=dataset.num_classes,
            seed=seed,
        )
        self.steps_computed = 0

    def compute_update(self, parameters: dict[str, np.ndarray], step: int) -> GradientUpdate:
        """Pull parameters, sample a mini-batch and compute the local gradients."""
        self.model.set_parameters(parameters)
        images, labels = self.dataset.minibatch(self.batch_size, self._rng)
        update = self.model.gradients(images, labels)
        update.worker_id = self.worker_id
        update.step = step
        self.steps_computed += 1
        return update

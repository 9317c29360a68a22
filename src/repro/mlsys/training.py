"""Distributed training driver (the Figure 1(a,b) experiment).

Reproduces the paper's setup: one parameter server plus N workers (five in the
paper) training a soft-max model, synchronously, with either mini-batch SGD
(batch size 3) or Adam (batch size 100). At every step the per-worker updates
are measured for cross-worker overlap before the server aggregates them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.errors import TrainingError
from repro.mlsys.datasets import Dataset, generate_synthetic_mnist
from repro.mlsys.model import SoftmaxModel
from repro.mlsys.optimizers import make_optimizer
from repro.mlsys.overlap import OverlapSeries, measure_step_overlap
from repro.mlsys.parameter_server import ParameterServer
from repro.mlsys.worker import Worker


@dataclass
class TrainingConfig:
    """Configuration of one distributed training run."""

    optimizer: str = "sgd"
    batch_size: int = 3
    num_workers: int = 5
    num_steps: int = 200
    seed: int = 2017
    learning_rate: float | None = None
    #: Tensors whose updates are measured for overlap; ``None`` means all.
    measured_tensors: tuple[str, ...] | None = None
    overlap_denominator: str = "all"
    #: Probability that one worker's update is lost in a step, modelling
    #: gradient contributions dropped under a degraded aggregation policy
    #: (``sampled`` / ``best_effort``). ``0.0`` — the default — takes the
    #: historical, byte-identical path (no RNG is even created).
    update_drop_rate: float = 0.0
    #: Seed of the (dedicated) update-drop stream; losses stay reproducible
    #: and independent of every other random stream in the run.
    update_drop_seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise TrainingError("num_workers must be positive")
        if self.num_steps <= 0:
            raise TrainingError("num_steps must be positive")
        if self.batch_size <= 0:
            raise TrainingError("batch_size must be positive")
        if not 0.0 <= self.update_drop_rate < 1.0:
            raise TrainingError("update_drop_rate must lie in [0, 1)")


@dataclass
class TrainingResult:
    """Outcome of a distributed training run."""

    config: TrainingConfig
    overlap: OverlapSeries
    losses: list[float] = field(default_factory=list)
    final_accuracy: float = 0.0
    server_traffic_reduction: list[float] = field(default_factory=list)
    #: Worker updates lost to the configured ``update_drop_rate``.
    updates_dropped: int = 0
    #: Steps where *every* update was lost (the synchronous round stalls).
    steps_stalled: int = 0

    def average_overlap(self) -> float:
        """Mean per-step overlap percentage (the paper's headline number)."""
        return self.overlap.average()


class DistributedTrainingJob:
    """Synchronous parameter-server training of the soft-max model."""

    def __init__(self, config: TrainingConfig, dataset: Dataset | None = None) -> None:
        self.config = config
        self.dataset = dataset or generate_synthetic_mnist(seed=config.seed)
        self.model = SoftmaxModel(
            num_features=self.dataset.num_features,
            num_classes=self.dataset.num_classes,
            seed=config.seed,
        )
        optimizer_kwargs = {}
        if config.learning_rate is not None:
            optimizer_kwargs["learning_rate"] = config.learning_rate
        self.server = ParameterServer(
            self.model.get_parameters(), make_optimizer(config.optimizer, **optimizer_kwargs)
        )
        self.workers = [
            Worker(
                worker_id=i,
                dataset=self.dataset.shard(config.num_workers, i),
                batch_size=config.batch_size,
                seed=config.seed,
            )
            for i in range(config.num_workers)
        ]

    def run(self) -> TrainingResult:
        """Run the configured number of synchronous steps."""
        overlap = OverlapSeries(
            optimizer=self.config.optimizer,
            batch_size=self.config.batch_size,
            num_workers=self.config.num_workers,
        )
        losses: list[float] = []
        drop_rng = (
            random.Random(self.config.update_drop_seed)
            if self.config.update_drop_rate > 0.0
            else None
        )
        updates_dropped = 0
        steps_stalled = 0
        for step in range(self.config.num_steps):
            parameters = self.server.pull()
            updates = [worker.compute_update(parameters, step) for worker in self.workers]
            overlap.append(
                measure_step_overlap(
                    updates,
                    tensors=self.config.measured_tensors,
                    denominator=self.config.overlap_denominator,
                )
            )
            if drop_rng is not None:
                rate = self.config.update_drop_rate
                survivors = [u for u in updates if drop_rng.random() >= rate]
                updates_dropped += len(updates) - len(survivors)
                updates = survivors
            if updates:
                self.server.push(updates)
            else:
                # Every contribution of this round was lost: the model does
                # not move, but the step still happened (and is counted).
                steps_stalled += 1
            if step % 10 == 0 or step == self.config.num_steps - 1:
                losses.append(self._evaluate_loss())

        result = TrainingResult(config=self.config, overlap=overlap, losses=losses)
        result.final_accuracy = self._evaluate_accuracy()
        result.server_traffic_reduction = self.server.traffic_reduction_series()
        result.updates_dropped = updates_dropped
        result.steps_stalled = steps_stalled
        return result

    # ------------------------------------------------------------------ #
    # Evaluation helpers (on a fixed subset to keep runs fast)
    # ------------------------------------------------------------------ #
    def _eval_slice(self) -> tuple[np.ndarray, np.ndarray]:
        size = min(2000, len(self.dataset))
        return self.dataset.images[:size], self.dataset.labels[:size]

    def _evaluate_loss(self) -> float:
        images, labels = self._eval_slice()
        self.model.set_parameters(self.server.parameters())
        return self.model.loss(images, labels)

    def _evaluate_accuracy(self) -> float:
        images, labels = self._eval_slice()
        self.model.set_parameters(self.server.parameters())
        return self.model.accuracy(images, labels)


@dataclass
class ConvergenceImpact:
    """Cost of degraded aggregation on training, vs the exact twin run.

    The exact run sets the loss target; the degraded run (same seeds, same
    data, with ``update_drop_rate`` applied) is given extra steps and the
    impact is how many *more* steps it needed to reach that target.
    """

    drop_rate: float
    exact_final_loss: float
    degraded_final_loss: float
    #: ``degraded_final_loss - exact_final_loss`` at the exact run's horizon.
    loss_gap: float
    #: Extra steps the degraded run needed to reach the exact run's final
    #: loss; ``None`` when it never got there within its allowance.
    extra_steps: int | None
    updates_dropped: int
    #: Fraction of worker updates lost across the degraded run.
    dropped_fraction: float


def measure_convergence_impact(
    config: TrainingConfig,
    drop_rate: float,
    drop_seed: int = 0,
    extra_step_allowance: int | None = None,
) -> ConvergenceImpact:
    """Run the exact twin and a degraded twin; quantify the convergence cost.

    Both runs share every seed and one generated dataset, so the *only*
    difference is the dropped updates — the measured gap is attributable to
    the degraded policy alone.
    """
    if drop_rate <= 0.0:
        raise TrainingError("measure_convergence_impact needs a positive drop_rate")
    allowance = (
        extra_step_allowance if extra_step_allowance is not None else config.num_steps
    )
    dataset = generate_synthetic_mnist(seed=config.seed)
    exact = DistributedTrainingJob(
        replace(config, update_drop_rate=0.0), dataset=dataset
    ).run()
    degraded_config = replace(
        config,
        update_drop_rate=drop_rate,
        update_drop_seed=drop_seed,
        num_steps=config.num_steps + allowance,
    )
    degraded = DistributedTrainingJob(degraded_config, dataset=dataset).run()

    # Loss checkpoints land every 10 steps plus the final step; rebuild the
    # step index of each checkpoint to translate "which checkpoint reached
    # the target" into a step count.
    def checkpoint_steps(num_steps: int) -> list[int]:
        steps = list(range(0, num_steps, 10))
        if steps[-1] != num_steps - 1:
            steps.append(num_steps - 1)
        return steps

    target = exact.losses[-1]
    degraded_steps = checkpoint_steps(degraded_config.num_steps)
    extra_steps: int | None = None
    for step, loss in zip(degraded_steps, degraded.losses):
        if loss <= target:
            extra_steps = max(0, step + 1 - config.num_steps)
            break
    horizon_checkpoints = sum(1 for s in degraded_steps if s < config.num_steps)
    degraded_at_horizon = degraded.losses[
        min(horizon_checkpoints, len(degraded.losses)) - 1
    ]
    total_updates = degraded_config.num_steps * degraded_config.num_workers
    return ConvergenceImpact(
        drop_rate=drop_rate,
        exact_final_loss=target,
        degraded_final_loss=degraded_at_horizon,
        loss_gap=degraded_at_horizon - target,
        extra_steps=extra_steps,
        updates_dropped=degraded.updates_dropped,
        dropped_fraction=degraded.updates_dropped / total_updates,
    )

"""Tensor-update overlap measurement (the Figure 1(a,b) metric).

"We evaluate the overlap of the tensor updates, i.e., the portion of tensor
elements that are updated by multiple workers at the same time. This overlap is
representative of the possible data reduction achievable when the updates are
aggregated inside the network." (Section 3.)

Given the per-worker sparse updates of one synchronous step, the overlap is the
fraction of tensor elements touched by **two or more** workers. Two
denominators are supported:

* ``"all"`` — all elements of the communicated tensors (the reading that
  matches the paper's reported magnitudes: ≈42.5% for SGD with mini-batch 3
  and ≈66.5% for Adam with mini-batch 100);
* ``"union"`` — only the elements touched by at least one worker this step
  (an upper-bound variant, also exposed because it equals the fraction of the
  step's traffic that is redundant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import TrainingError
from repro.mlsys.model import GradientUpdate


@dataclass
class StepOverlap:
    """Overlap measurement for one synchronous training step."""

    step: int
    overlap_percent: float
    union_elements: int
    multi_worker_elements: int
    total_elements: int
    per_worker_touched: tuple[int, ...] = ()


@dataclass
class OverlapSeries:
    """Overlap across the steps of one training run."""

    optimizer: str
    batch_size: int
    num_workers: int
    steps: list[StepOverlap] = field(default_factory=list)

    def append(self, step: StepOverlap) -> None:
        """Record one step."""
        self.steps.append(step)

    def percentages(self) -> list[float]:
        """Per-step overlap percentages, in step order."""
        return [s.overlap_percent for s in self.steps]

    def average(self) -> float:
        """Average overlap percentage over the run."""
        if not self.steps:
            raise TrainingError("overlap series is empty")
        return mean(self.percentages())


def measure_step_overlap(
    updates: Sequence[GradientUpdate],
    tensors: Iterable[str] | None = None,
    denominator: str = "all",
) -> StepOverlap:
    """Compute the overlap of one synchronous step's worker updates.

    Parameters
    ----------
    updates:
        One :class:`GradientUpdate` per worker for the same step.
    tensors:
        Restrict the measurement to these tensors (default: every tensor in
        the first update — the paper measures the communicated tensors).
    denominator:
        ``"all"`` or ``"union"`` (see module docstring).
    """
    if not updates:
        raise TrainingError("measure_step_overlap needs at least one update")
    if denominator not in ("all", "union"):
        raise TrainingError(f"unknown denominator {denominator!r}")
    tensor_names = list(tensors) if tensors is not None else list(updates[0].gradients)

    total_elements = 0
    union_elements = 0
    multi_elements = 0
    per_worker_touched = [0] * len(updates)
    for tensor in tensor_names:
        size = updates[0].gradients[tensor].size
        total_elements += size
        touch_count = np.zeros(size, dtype=np.int32)
        for worker_index, update in enumerate(updates):
            if tensor not in update.gradients:
                raise TrainingError(f"worker update missing tensor {tensor!r}")
            indices = update.touched_indices(tensor)
            per_worker_touched[worker_index] += indices.size
            touch_count[indices] += 1
        union_elements += int((touch_count >= 1).sum())
        multi_elements += int((touch_count >= 2).sum())

    if denominator == "all":
        base = total_elements
    else:
        base = union_elements
    percent = 100.0 * multi_elements / base if base else 0.0
    step = updates[0].step
    return StepOverlap(
        step=step,
        overlap_percent=percent,
        union_elements=union_elements,
        multi_worker_elements=multi_elements,
        total_elements=total_elements,
        per_worker_touched=tuple(per_worker_touched),
    )

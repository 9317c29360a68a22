"""Sparse tensor updates and their key-value encoding.

"In TensorFlow, the parameters are tensors [...] Parameter updates are deltas
that change only a subset of the overall tensor and can be aggregated by a
vector addition operation." (Section 3.) This module converts dense gradient
tensors into sparse (index, value) updates, and encodes them as the key-value
pairs DAIET aggregates in the network — the key identifies the tensor element,
the value is the (quantized) delta, and the aggregation function is ``sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import TrainingError
from repro.mlsys.model import GradientUpdate

#: Fixed-point scale used to carry float gradients in DAIET's integer values.
DEFAULT_QUANTIZATION_SCALE = 1 << 16


@dataclass
class SparseTensorUpdate:
    """Sparse update of one named tensor: flat indices and their delta values."""

    tensor: str
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise TrainingError("indices and values must have the same length")


@dataclass
class SparseUpdate:
    """A worker's full sparse update: one :class:`SparseTensorUpdate` per tensor."""

    worker_id: int
    step: int
    tensors: dict[str, SparseTensorUpdate] = field(default_factory=dict)


def sparsify(update: GradientUpdate, threshold: float = 0.0) -> SparseUpdate:
    """Convert a dense gradient update into its sparse representation.

    Elements with absolute value less than or equal to ``threshold`` are
    dropped (the default keeps every exactly-non-zero element, matching the
    structural sparsity created by zero input features).
    """
    sparse = SparseUpdate(worker_id=update.worker_id, step=update.step)
    for tensor, grad in update.gradients.items():
        flat = grad.reshape(-1)
        indices = np.flatnonzero(np.abs(flat) > threshold)
        sparse.tensors[tensor] = SparseTensorUpdate(
            tensor=tensor,
            indices=indices,
            values=flat[indices].copy(),
        )
    return sparse


def to_key_value_pairs(
    sparse: SparseUpdate,
    scale: int = DEFAULT_QUANTIZATION_SCALE,
) -> list[tuple[str, int]]:
    """Encode a sparse update as DAIET key-value pairs.

    Keys are ``"<tensor>:<flat index>"`` (at most 16 characters for the model
    sizes used here); values are fixed-point quantized deltas, so that summing
    them in the network is exactly the vector addition the parameter server
    would perform.
    """
    if scale <= 0:
        raise TrainingError("quantization scale must be positive")
    pairs: list[tuple[str, int]] = []
    for tensor, update in sparse.tensors.items():
        for index, value in zip(update.indices, update.values):
            key = f"{tensor}:{int(index)}"
            pairs.append((key, int(round(float(value) * scale))))
    return pairs


def from_key_value_pairs(
    pairs: list[tuple[str, int]],
    shapes: dict[str, tuple[int, ...]],
    scale: int = DEFAULT_QUANTIZATION_SCALE,
) -> dict[str, np.ndarray]:
    """Decode (possibly pre-aggregated) key-value pairs into dense tensors."""
    if scale <= 0:
        raise TrainingError("quantization scale must be positive")
    dense = {
        tensor: np.zeros(int(np.prod(shape)), dtype=np.float64) for tensor, shape in shapes.items()
    }
    for key, value in pairs:
        tensor, _, index_text = key.partition(":")
        if tensor not in dense or not index_text:
            raise TrainingError(f"malformed tensor-update key {key!r}")
        index = int(index_text)
        if not 0 <= index < dense[tensor].size:
            raise TrainingError(f"index {index} out of range for tensor {tensor!r}")
        dense[tensor][index] += value / scale
    return {tensor: arr.reshape(shapes[tensor]) for tensor, arr in dense.items()}

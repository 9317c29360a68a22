"""Soft-max model used by the Figure 1(a,b) experiment.

The paper trains "a Soft-Max Neural Network" on MNIST — i.e. multinomial
logistic regression: a single dense layer ``W`` (784x10) plus bias ``b`` (10)
followed by a soft-max, trained with cross-entropy. The parameters are exposed
as named tensors so the parameter server and the overlap measurement can treat
them exactly like TensorFlow variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import TrainingError


@dataclass
class GradientUpdate:
    """A worker's parameter update for one step: dense per-tensor gradients."""

    gradients: dict[str, np.ndarray]
    num_samples: int
    worker_id: int = -1
    step: int = -1

    def touched_indices(self, tensor: str) -> np.ndarray:
        """Flat indices of the tensor elements this update modifies (non-zero)."""
        grad = self.gradients[tensor]
        return np.flatnonzero(grad)


@dataclass
class SoftmaxModel:
    """Multinomial logistic regression with named parameter tensors."""

    num_features: int = 784
    num_classes: int = 10
    seed: int = 0
    parameters: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_features <= 0 or self.num_classes <= 1:
            raise TrainingError("model dimensions must be positive (>=2 classes)")
        rng = np.random.default_rng(self.seed)
        self.parameters = {
            "W": (rng.standard_normal((self.num_features, self.num_classes)) * 0.01).astype(
                np.float64
            ),
            "b": np.zeros(self.num_classes, dtype=np.float64),
        }

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def logits(self, images: np.ndarray) -> np.ndarray:
        """Pre-softmax scores for a batch of images."""
        return images @ self.parameters["W"] + self.parameters["b"]

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of images."""
        return softmax(self.logits(images))

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        return np.argmax(self.logits(images), axis=1)

    def loss(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy loss over a batch."""
        proba = self.predict_proba(images)
        batch = np.arange(len(labels))
        return float(-np.log(np.clip(proba[batch, labels], 1e-12, 1.0)).mean())

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy over a batch."""
        return float((self.predict(images) == labels).mean())

    def gradients(self, images: np.ndarray, labels: np.ndarray) -> GradientUpdate:
        """Cross-entropy gradients for one mini-batch.

        The gradient of ``W`` is ``X^T (softmax - onehot) / n``: rows
        corresponding to pixels that are zero in *every* image of the
        mini-batch are exactly zero, which is the sparsity the overlap study
        measures.
        """
        if len(images) == 0:
            raise TrainingError("cannot compute gradients over an empty mini-batch")
        proba = self.predict_proba(images)
        onehot = np.zeros_like(proba)
        onehot[np.arange(len(labels)), labels] = 1.0
        delta = (proba - onehot) / len(images)
        grad_w = images.T @ delta
        grad_b = delta.sum(axis=0)
        return GradientUpdate(
            gradients={"W": grad_w, "b": grad_b},
            num_samples=len(images),
        )

    # ------------------------------------------------------------------ #
    # Parameter access
    # ------------------------------------------------------------------ #
    def get_parameters(self) -> dict[str, np.ndarray]:
        """Copies of the parameter tensors."""
        return {name: tensor.copy() for name, tensor in self.parameters.items()}

    def set_parameters(self, parameters: dict[str, np.ndarray]) -> None:
        """Overwrite the parameter tensors (worker pull from the PS)."""
        for name, tensor in parameters.items():
            if name not in self.parameters:
                raise TrainingError(f"unknown parameter tensor {name!r}")
            if tensor.shape != self.parameters[name].shape:
                raise TrainingError(
                    f"shape mismatch for {name!r}: {tensor.shape} vs "
                    f"{self.parameters[name].shape}"
                )
            self.parameters[name] = tensor.copy()


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable soft-max along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)

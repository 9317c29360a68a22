"""Fixture: imports the module never reads (unused-import lint)."""

from __future__ import annotations

import collections.abc
import json as codec
import os
from math import floor, sqrt
from typing import Any, Iterable

__all__ = ["floor"]


def norm(values: "Iterable[float]") -> Any:
    return sqrt(sum(value * value for value in values))

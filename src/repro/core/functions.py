"""Aggregation functions.

The paper restricts in-network computation to aggregation functions that are
*commutative and associative*, so they "can be applied separately on different
portions of the input data, disregarding the order, without affecting the
correctness of the final result". This module provides the registry of such
functions used by the switch aggregation engine, the MapReduce combiners, the
parameter server and the Pregel combiners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.errors import AggregationError


@dataclass(frozen=True)
class AggregationFunction:
    """A named commutative/associative binary aggregation function.

    Attributes
    ----------
    name:
        Registry name, also used in controller flow rules.
    combine:
        Binary function merging two values.
    identity:
        Optional identity element (used when folding an empty sequence).
    """

    name: str
    combine: Callable[[Any, Any], Any]
    identity: Any = None

    def __call__(self, left: Any, right: Any) -> Any:
        return self.combine(left, right)

    def reduce(self, values: Iterable[Any]) -> Any:
        """Fold an iterable of values with this function."""
        iterator = iter(values)
        try:
            accumulator = next(iterator)
        except StopIteration:
            if self.identity is None:
                raise AggregationError(
                    f"cannot reduce an empty sequence with {self.name!r} "
                    "(no identity element)"
                ) from None
            return self.identity
        for value in iterator:
            accumulator = self.combine(accumulator, value)
        return accumulator


SUM = AggregationFunction(name="sum", combine=lambda a, b: a + b, identity=0)
COUNT = AggregationFunction(name="count", combine=lambda a, b: a + b, identity=0)
MIN = AggregationFunction(name="min", combine=min)
MAX = AggregationFunction(name="max", combine=max)
BITWISE_OR = AggregationFunction(name="or", combine=lambda a, b: a | b, identity=0)
BITWISE_AND = AggregationFunction(name="and", combine=lambda a, b: a & b)

_REGISTRY: dict[str, AggregationFunction] = {
    func.name: func
    for func in (SUM, COUNT, MIN, MAX, BITWISE_OR, BITWISE_AND)
}


def get(name: str) -> AggregationFunction:
    """Look up an aggregation function by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise AggregationError(
            f"unknown aggregation function {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


def aggregate_pairs(
    pairs: Iterable[tuple[Any, Any]],
    function: AggregationFunction,
) -> dict[Any, Any]:
    """Aggregate a stream of key-value pairs into a per-key dictionary.

    This is the reference ("ideal") aggregation used to validate in-network
    results: the final value for each key must be identical whether
    aggregation happened at hosts, in switches, or here.
    """
    result: dict[Any, Any] = {}
    for key, value in pairs:
        if key in result:
            result[key] = function(result[key], value)
        else:
            result[key] = value
    return result

"""Unit and property tests for the aggregation-function registry."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import AggregationError
from repro.core import functions
from repro.core.functions import (
    MAX,
    MIN,
    SUM,
    aggregate_pairs,
)


class TestRegistry:
    def test_get_returns_named_function(self):
        assert functions.get("sum") is SUM
        assert functions.get("min") is MIN
        assert functions.get("max") is MAX
        assert functions.get("count")(2, 3) == 5

    def test_get_unknown_raises(self):
        with pytest.raises(AggregationError):
            functions.get("median")


class TestSemantics:
    def test_sum_min_max(self):
        assert SUM(3, 4) == 7
        assert MIN(3, 4) == 3
        assert MAX(3, 4) == 4

    def test_reduce_with_identity(self):
        assert SUM.reduce([]) == 0
        assert SUM.reduce([1, 2, 3]) == 6

    def test_reduce_without_identity_on_empty_raises(self):
        with pytest.raises(AggregationError):
            MIN.reduce([])

    def test_aggregate_pairs_reference(self):
        result = aggregate_pairs([("a", 1), ("b", 2), ("a", 3)], SUM)
        assert result == {"a": 4, "b": 2}

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    def test_sum_is_commutative_and_associative(self, values):
        assert SUM.reduce(values) == SUM.reduce(list(reversed(values))) == sum(values)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    def test_min_max_match_builtins(self, values):
        assert MIN.reduce(values) == min(values)
        assert MAX.reduce(values) == max(values)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(-100, 100)),
            max_size=60,
        )
    )
    def test_aggregate_pairs_split_invariance(self, pairs):
        """Aggregating any prefix/suffix split then merging equals one pass."""
        whole = aggregate_pairs(pairs, SUM)
        for cut in (0, len(pairs) // 2, len(pairs)):
            left = aggregate_pairs(pairs[:cut], SUM)
            right = aggregate_pairs(pairs[cut:], SUM)
            merged = dict(left)
            for key, value in right.items():
                merged[key] = SUM(merged[key], value) if key in merged else value
            assert merged == whole

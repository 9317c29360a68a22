"""Unit tests for the switch register structures."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import AggregationError, ResourceExhaustedError
from repro.dataplane.registers import IndexStack, RegisterArray, SpilloverBucket


class TestRegisterArray:
    def test_starts_empty(self):
        array = RegisterArray(8)
        assert len(array) == 8
        assert array.occupancy() == 0
        assert all(array.is_empty(i) for i in range(8))

    def test_write_and_read(self):
        array = RegisterArray(4)
        array.write(2, "value")
        assert array.read(2) == "value"
        assert not array.is_empty(2)
        assert array.occupancy() == 1
        assert array.occupied_indices() == [2]

    def test_clear_single_cell(self):
        array = RegisterArray(4)
        array.write(1, 10)
        array.clear(1)
        assert array.is_empty(1)
        assert array.occupancy() == 0

    def test_reset_clears_everything(self):
        array = RegisterArray(4)
        for i in range(4):
            array.write(i, i)
        array.reset()
        assert array.occupancy() == 0

    def test_out_of_range_read_raises(self):
        array = RegisterArray(4)
        with pytest.raises(AggregationError):
            array.read(4)
        with pytest.raises(AggregationError):
            array.write(-1, 0)

    def test_zero_size_rejected(self):
        with pytest.raises(ResourceExhaustedError):
            RegisterArray(0)

    @given(st.lists(st.tuples(st.integers(0, 31), st.integers()), max_size=50))
    def test_last_write_wins(self, writes):
        array = RegisterArray(32)
        expected: dict[int, int] = {}
        for index, value in writes:
            array.write(index, value)
            expected[index] = value
        for index, value in expected.items():
            assert array.read(index) == value


class TestIndexStack:
    def test_push_pop_lifo(self):
        stack = IndexStack(capacity=4)
        stack.push(1)
        stack.push(2)
        assert len(stack) == 2
        assert stack.pop() == 2
        assert stack.pop() == 1

    def test_overflow_raises(self):
        stack = IndexStack(capacity=2)
        stack.push(0)
        stack.push(1)
        with pytest.raises(ResourceExhaustedError):
            stack.push(2)

    def test_pop_empty_raises(self):
        stack = IndexStack(capacity=2)
        with pytest.raises(AggregationError):
            stack.pop()

    def test_drain_empties_the_stack(self):
        stack = IndexStack(capacity=8)
        for i in range(5):
            stack.push(i)
        drained = list(stack.drain())
        assert sorted(drained) == list(range(5))
        assert len(stack) == 0

    def test_peek_all_does_not_modify(self):
        stack = IndexStack(capacity=8)
        stack.push(3)
        stack.push(7)
        assert stack.peek_all() == (3, 7)
        assert len(stack) == 2

    def test_clear(self):
        stack = IndexStack(capacity=8)
        stack.push(1)
        stack.clear()
        assert len(stack) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ResourceExhaustedError):
            IndexStack(capacity=0)


class TestSpilloverBucket:
    def test_store_until_full(self):
        bucket = SpilloverBucket(capacity=2)
        bucket.store("a", 1)
        assert not bucket.is_full
        bucket.store("b", 2)
        assert bucket.is_full
        with pytest.raises(ResourceExhaustedError):
            bucket.store("c", 3)

    def test_flush_returns_fifo_order(self):
        bucket = SpilloverBucket(capacity=3)
        bucket.store("a", 1)
        bucket.store("b", 2)
        assert bucket.flush() == [("a", 1), ("b", 2)]
        assert len(bucket) == 0
        assert bucket.flush() == []

    def test_peek_keeps_contents(self):
        bucket = SpilloverBucket(capacity=3)
        bucket.store("x", 9)
        assert bucket.peek() == (("x", 9),)
        assert len(bucket) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ResourceExhaustedError):
            SpilloverBucket(capacity=0)

    @given(st.lists(st.tuples(st.text(max_size=4), st.integers()), max_size=30))
    def test_flush_preserves_all_stored_pairs(self, pairs):
        bucket = SpilloverBucket(capacity=max(1, len(pairs)))
        for key, value in pairs:
            bucket.store(key, value)
        assert bucket.flush() == pairs

    def test_combine_merges_in_place_keeping_fifo_order(self):
        bucket = SpilloverBucket(capacity=3)
        add = lambda a, b: a + b  # noqa: E731
        assert bucket.store("a", 1, add) is True
        assert bucket.store("b", 2, add) is True
        assert bucket.store("a", 10, add) is False  # merged, not appended
        assert bucket.store("b", 20, add) is False
        assert len(bucket) == 2
        assert bucket.flush() == [("a", 11), ("b", 22)]

    def test_combine_merges_into_first_slot_of_duplicates(self):
        # Duplicates appended without ``combine`` keep the behaviour of the
        # old front-to-back scan: a later merge lands in the *first* slot.
        bucket = SpilloverBucket(capacity=4)
        bucket.store("k", 1)
        bucket.store("x", 5)
        bucket.store("k", 2)
        assert bucket.store("k", 10, lambda a, b: a + b) is False
        assert bucket.flush() == [("k", 11), ("x", 5), ("k", 2)]

    def test_slot_index_resets_after_flush(self):
        bucket = SpilloverBucket(capacity=2)
        add = lambda a, b: a + b  # noqa: E731
        bucket.store("a", 1, add)
        bucket.flush()
        assert bucket.store("a", 7, add) is True  # fresh entry, not a merge
        assert bucket.flush() == [("a", 7)]

    def test_unhashable_keys_are_rejected(self):
        bucket = SpilloverBucket(capacity=3)
        with pytest.raises(TypeError):
            bucket.store(["unhashable"], 1, lambda a, b: a + b)
        assert bucket.flush() == []

"""Unit tests for the switch register structures."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ResourceExhaustedError
from repro.dataplane.registers import IndexStack, SpilloverBucket


class TestIndexStack:
    def test_push_pop_lifo(self):
        stack = IndexStack(capacity=4)
        stack.push(1)
        stack.push(2)
        assert list(stack.drain()) == [2, 1]

    def test_overflow_raises(self):
        stack = IndexStack(capacity=2)
        stack.push(0)
        stack.push(1)
        with pytest.raises(ResourceExhaustedError):
            stack.push(2)

    def test_push_many_keeps_order_and_refuses_as_a_whole(self):
        stack = IndexStack(capacity=4)
        stack.push(5)
        stack.push_many([3, 9])
        assert stack.peek_all() == (5, 3, 9)
        with pytest.raises(ResourceExhaustedError):
            stack.push_many([1, 2])
        assert stack.peek_all() == (5, 3, 9)  # nothing of the refused push
        stack.push_many([1])
        assert list(stack.drain()) == [1, 9, 3, 5]

    def test_drain_empties_the_stack(self):
        stack = IndexStack(capacity=8)
        for i in range(5):
            stack.push(i)
        drained = list(stack.drain())
        assert sorted(drained) == list(range(5))
        assert stack.peek_all() == ()

    def test_peek_all_does_not_modify(self):
        stack = IndexStack(capacity=8)
        stack.push(3)
        stack.push(7)
        assert stack.peek_all() == (3, 7)
        assert stack.peek_all() == (3, 7)

    def test_clear(self):
        stack = IndexStack(capacity=8)
        stack.push(1)
        stack.clear()
        assert stack.peek_all() == ()

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

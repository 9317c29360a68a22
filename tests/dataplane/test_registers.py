"""Unit tests for the switch register structures."""

from __future__ import annotations

import pytest

from repro.core.errors import ResourceExhaustedError
from repro.dataplane.registers import IndexStack


class TestIndexStack:
    def test_push_pop_lifo(self):
        stack = IndexStack(capacity=4)
        stack.push_many([1])
        stack.push_many([2])
        assert list(stack.drain()) == [2, 1]

    def test_overflow_raises(self):
        stack = IndexStack(capacity=2)
        stack.push_many([0, 1])
        with pytest.raises(ResourceExhaustedError):
            stack.push_many([2])

    def test_push_many_keeps_order_and_refuses_as_a_whole(self):
        stack = IndexStack(capacity=4)
        stack.push_many([5])
        stack.push_many([3, 9])
        assert stack.peek_all() == (5, 3, 9)
        with pytest.raises(ResourceExhaustedError):
            stack.push_many([1, 2])
        assert stack.peek_all() == (5, 3, 9)  # nothing of the refused push
        stack.push_many([1])
        assert list(stack.drain()) == [1, 9, 3, 5]

    def test_drain_empties_the_stack(self):
        stack = IndexStack(capacity=8)
        stack.push_many(list(range(5)))
        drained = list(stack.drain())
        assert sorted(drained) == list(range(5))
        assert stack.peek_all() == ()

    def test_peek_all_does_not_modify(self):
        stack = IndexStack(capacity=8)
        stack.push_many([3, 7])
        assert stack.peek_all() == (3, 7)
        assert stack.peek_all() == (3, 7)

    def test_clear(self):
        stack = IndexStack(capacity=8)
        stack.push_many([1])
        stack.clear()
        assert stack.peek_all() == ()

    def test_invalid_capacity(self):
        with pytest.raises(ResourceExhaustedError):
            IndexStack(capacity=0)


"""Stateful register structures of a programmable switch.

The DAIET design (Section 4 of the paper) keeps, per aggregation tree:

* a *key register array* and a *value register array*, managed together as a
  hash table with single-element buckets (``core/aggregation.py`` keeps
  both as int64 arrays: interned key ids, "kids", and their values),
* an *index stack* recording which slots are in use, so flushing does not
  require scanning the whole array,
* a *spillover bucket*, a small queue that absorbs hash collisions and is
  flushed to the next node whenever it fills up (``TreeState.spillover``,
  an insertion-ordered ``dict`` of kid -> value that the register kernel
  edits in place).

The index stack is modelled here independently of the aggregation algorithm
so that it can be unit-tested on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import ResourceExhaustedError


@dataclass
class IndexStack:
    """Stack of occupied register indices.

    The paper keeps this stack "to store the indices of the used cells in the
    two arrays", so that the flush operation can walk only the used slots
    instead of scanning the full 16K-entry arrays.
    """

    capacity: int
    _items: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ResourceExhaustedError("index stack capacity must be positive")

    def push_many(self, indices: list[int]) -> None:
        """Record ``indices`` as occupied, in order; nothing is pushed on overflow."""
        if len(self._items) + len(indices) > self.capacity:
            raise ResourceExhaustedError(
                f"index stack overflow (capacity {self.capacity})"
            )
        self._items.extend(indices)

    def drain(self) -> Iterator[int]:
        """Yield and remove every recorded index (used during flush)."""
        while self._items:
            yield self._items.pop()

    def peek_all(self) -> tuple[int, ...]:
        """Snapshot of the stack contents without modifying it."""
        return tuple(self._items)

    def clear(self) -> None:
        """Empty the stack."""
        self._items.clear()

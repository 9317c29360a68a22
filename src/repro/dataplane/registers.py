"""Stateful register structures of a programmable switch.

The DAIET design (Section 4 of the paper) keeps, per aggregation tree:

* a *key register array* and a *value register array*, managed together as a
  hash table with single-element buckets (``core/aggregation.py`` keeps
  both as int64 arrays: interned key ids, "kids", and their values),
* an *index stack* recording which slots are in use, so flushing does not
  require scanning the whole array,
* a *spillover bucket*, a small queue that absorbs hash collisions and is
  flushed to the next node whenever it fills up.

The index stack and the spillover bucket are modelled here independently of
the aggregation algorithm so that they can be unit-tested on their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

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

    def push(self, index: int) -> None:
        """Record that ``index`` is now occupied."""
        if len(self._items) >= self.capacity:
            raise ResourceExhaustedError(
                f"index stack overflow (capacity {self.capacity})"
            )
        self._items.append(index)

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


@dataclass
class SpilloverBucket:
    """Queue of key-value pairs that collided in the hash-indexed registers.

    A switch stores ``(kid, value)`` pairs here: its registers live in kid
    space, and a flush is cut from kid and value columns.

    The bucket holds as many pairs as fit in one DAIET packet (a tree's
    capacity is its ``pairs_per_packet``); when full, its contents must be
    flushed (sent to the next node in the aggregation tree) as one packet.
    The paper sends spillover pairs *first* so the next hop can still aggregate
    them if it has spare memory.

    A key → slot dictionary rides alongside the FIFO pair list so that the
    merge check in :meth:`store` is O(1) instead of a scan over the whole
    bucket on every collision; flush order stays strictly FIFO. The per-pair
    walk stores into it one pair at a time; the register kernel replays a
    whole call's collisions with the same rules, starting from what the
    bucket holds (:meth:`peek`), and leaves it holding what is left over
    (``DaietAggregationEngine._spill_columns``).
    """

    capacity: int
    _pairs: list[tuple[Any, Any]] = field(default_factory=list, repr=False)
    #: key -> index into ``_pairs`` (rebuilt empty on every flush).
    _slots: dict[Any, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ResourceExhaustedError("spillover bucket capacity must be positive")

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def is_full(self) -> bool:
        """``True`` when the next :meth:`store` would exceed capacity."""
        return len(self._pairs) >= self.capacity

    def store(self, key: Any, value: Any, combine: Any = None) -> bool:
        """Buffer a colliding pair, aggregating repeats of the same key.

        When ``combine`` (a two-argument aggregation function) is given and
        the bucket already holds an entry for ``key``, the values are merged
        in place instead of appending a duplicate entry — repeated collisions
        of one key must not inflate spillover flushes. Returns ``True`` when a
        new entry was appended and ``False`` when the pair was merged. Keys
        must be hashable (``TypeError`` otherwise): the engine has already
        hashed every key into a register index before it gets here.
        """
        slot = self._slots.get(key)
        if combine is not None and slot is not None:
            stored_key, stored_value = self._pairs[slot]
            self._pairs[slot] = (stored_key, combine(stored_value, value))
            return False
        if len(self._pairs) >= self.capacity:
            raise ResourceExhaustedError(
                f"spillover bucket overflow (capacity {self.capacity})"
            )
        # ``setdefault`` keeps the *first* slot for a key stored repeatedly
        # without ``combine``, matching the old scan-from-the-front merge.
        self._slots.setdefault(key, len(self._pairs))
        self._pairs.append((key, value))
        return True

    def flush(self) -> list[tuple[Any, Any]]:
        """Remove and return all buffered pairs in FIFO order."""
        pairs, self._pairs = self._pairs, []
        self._slots = {}
        return pairs

    def peek(self) -> tuple[tuple[Any, Any], ...]:
        """Snapshot of the buffered pairs without flushing them."""
        return tuple(self._pairs)

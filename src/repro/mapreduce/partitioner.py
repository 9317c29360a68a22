"""Partitioning of intermediate keys across reducers.

The map output is "partitioned among the reducers" (Section 4). The default
hash partitioner uses a salted CRC32 so that it is deterministic across runs
but statistically independent from the in-switch register hash — a correlation
between the two would make register collisions systematically more (or less)
likely than in the paper's setup.
"""

from __future__ import annotations

import zlib

from repro.core.errors import JobError


class HashPartitioner:
    """Deterministic hash partitioner mapping keys to reducer indices."""

    def __init__(self, num_partitions: int, salt: str = "daiet-partition") -> None:
        if num_partitions <= 0:
            raise JobError("num_partitions must be positive")
        self.num_partitions = num_partitions
        self.salt = salt

    def partition(self, key: str) -> int:
        """Reducer index responsible for ``key``."""
        data = f"{self.salt}:{key}".encode()
        return zlib.crc32(data) % self.num_partitions

    def __call__(self, key: str) -> int:
        return self.partition(key)

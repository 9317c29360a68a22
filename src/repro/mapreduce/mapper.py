"""Map-task execution.

A map task applies the user map function to its input split and partitions
the emitted pairs among the reducers. Every pair must fit the fixed-size
representation the shuffle puts on the wire (Section 4: ``key_width``-byte
keys, signed ``value_width``-byte values); a map task refuses one that does
not. For the TCP baseline the per-partition output is additionally sorted by
key, as the original MapReduce does before serving it to reducers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.errors import JobError, PacketFormatError
from repro.mapreduce.job import JobSpec
from repro.mapreduce.partitioner import HashPartitioner


@dataclass
class MapOutput:
    """The materialized output of one map task."""

    mapper_id: int
    host: str
    partitions: dict[int, list[tuple[str, int]]] = field(default_factory=dict)
    pairs_emitted: int = 0
    records_processed: int = 0

    def partition(self, reducer_id: int) -> list[tuple[str, int]]:
        """Pairs destined to ``reducer_id`` (possibly empty)."""
        return self.partitions.get(reducer_id, [])

    def sorted_partition(self, reducer_id: int) -> list[tuple[str, int]]:
        """The partition sorted by key (mapper-side sort of the TCP baseline)."""
        return sorted(self.partition(reducer_id))


class MapTask:
    """One map task bound to a host of the simulated cluster."""

    def __init__(
        self,
        mapper_id: int,
        host: str,
        spec: JobSpec,
        partitioner: HashPartitioner | None = None,
    ) -> None:
        if mapper_id < 0:
            raise JobError("mapper_id must be non-negative")
        self.mapper_id = mapper_id
        self.host = host
        self.spec = spec
        self.partitioner = partitioner or HashPartitioner(spec.num_reducers)

    def run(self, records: Iterable[Any]) -> MapOutput:
        """Execute the map function over the input split.

        Raises :class:`PacketFormatError` for a key longer than ``key_width``
        bytes or a value outside ``value_width``'s signed range.
        """
        key_width = self.spec.daiet.key_width
        value_width = self.spec.daiet.value_width
        limit = 1 << (8 * value_width - 1)
        output = MapOutput(mapper_id=self.mapper_id, host=self.host)
        for record in records:
            output.records_processed += 1
            for key, value in self.spec.map_function(record):
                key_bytes = len(key.encode())
                if key_bytes > key_width:
                    raise PacketFormatError(
                        f"key {key!r} is {key_bytes} B, exceeding the fixed key width "
                        f"of {key_width} B"
                    )
                if not -limit <= value < limit:
                    raise PacketFormatError(
                        f"value {value} does not fit in {value_width} bytes"
                    )
                reducer_id = self.partitioner(key)
                output.partitions.setdefault(reducer_id, []).append((key, value))
                output.pairs_emitted += 1
        return output

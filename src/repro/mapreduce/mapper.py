"""Map-task execution.

A map task applies the user map function to its input split and partitions
the emitted pairs among the reducers. Every pair must fit the fixed-size
representation the shuffle puts on the wire (Section 4: ``str``/``bytes``
keys of at most ``key_width`` bytes, ``int`` values of 4 signed bytes); a map
task refuses one that does not, by the packet format's own rule
(:func:`repro.core.packet.check_pair`), so a bad pair fails where the user's
map function emitted it rather than at send. For the TCP baseline the
per-partition output is additionally sorted by key, as the original
MapReduce does before serving it to reducers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.errors import JobError
from repro.core.packet import check_pair
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

        Raises :class:`~repro.core.errors.PacketFormatError` for a pair the
        wire format cannot carry (see :func:`~repro.core.packet.check_pair`).
        """
        key_width = self.spec.daiet.key_width
        output = MapOutput(mapper_id=self.mapper_id, host=self.host)
        for record in records:
            output.records_processed += 1
            for key, value in self.spec.map_function(record):
                check_pair(key, value, key_width)
                reducer_id = self.partitioner(key)
                output.partitions.setdefault(reducer_id, []).append((key, value))
                output.pairs_emitted += 1
        return output

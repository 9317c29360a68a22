"""Job specification, placement and results for the MapReduce substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.config import DaietConfig
from repro.core.errors import JobError

#: A map function turns one input record into zero or more key-value pairs.
MapFunction = Callable[[Any], Iterable[tuple[str, int]]]

#: A reduce function folds all values of one key into the final output value.
ReduceFunction = Callable[[str, list[int]], Any]


@dataclass(frozen=True)
class JobSpec:
    """Static description of a MapReduce job.

    Parameters
    ----------
    name:
        Job name used in logs and results.
    map_function:
        The user map function applied to each input record.
    reduce_function:
        The user reduce function applied to each key's value list.
    aggregation:
        The commutative/associative aggregation function offloadable to the
        network (``"sum"`` for WordCount). This is the function DAIET installs
        on the switches; the job's correctness must not depend on *where* it is
        applied.
    num_mappers / num_reducers:
        Degree of parallelism of the two phases.
    daiet:
        The DAIET wire-format configuration (key width, pairs per packet...).
    """

    name: str
    map_function: MapFunction
    reduce_function: ReduceFunction
    aggregation: str = "sum"
    num_mappers: int = 24
    num_reducers: int = 12
    daiet: DaietConfig = field(default_factory=DaietConfig)

    def __post_init__(self) -> None:
        if self.num_mappers <= 0:
            raise JobError("num_mappers must be positive")
        if self.num_reducers <= 0:
            raise JobError("num_reducers must be positive")


@dataclass(frozen=True)
class TaskPlacement:
    """Where every task runs.

    The paper's testbed co-locates tasks on 12 worker containers (two mappers
    and one reducer each); placements are expressed as host names from the
    simulated topology.
    """

    mapper_hosts: tuple[str, ...]
    reducer_hosts: tuple[str, ...]
    master_host: str = "master"

    def __post_init__(self) -> None:
        if not self.mapper_hosts:
            raise JobError("placement needs at least one mapper host")
        if not self.reducer_hosts:
            raise JobError("placement needs at least one reducer host")
        if len(set(self.reducer_hosts)) != len(self.reducer_hosts):
            raise JobError("each reduce task must run on a distinct host")

    @property
    def num_mappers(self) -> int:
        """Number of map tasks."""
        return len(self.mapper_hosts)

    @property
    def num_reducers(self) -> int:
        """Number of reduce tasks."""
        return len(self.reducer_hosts)

    def mapper_host(self, mapper_id: int) -> str:
        """Host running map task ``mapper_id``."""
        try:
            return self.mapper_hosts[mapper_id]
        except IndexError as exc:
            raise JobError(f"no mapper with id {mapper_id}") from exc

    def reducer_host(self, reducer_id: int) -> str:
        """Host running reduce task ``reducer_id``."""
        try:
            return self.reducer_hosts[reducer_id]
        except IndexError as exc:
            raise JobError(f"no reducer with id {reducer_id}") from exc


@dataclass
class ReducerMetrics:
    """Per-reducer measurements used by Figure 3.

    Attributes mirror what the paper measures at each reducer: the volume of
    intermediate data received over the network, the number of packets that
    carried it, and the wall-clock time the reduce task spent processing it.
    """

    reducer_id: int
    host: str
    payload_bytes_received: int = 0
    wire_bytes_received: int = 0
    packets_received: int = 0
    pairs_received: int = 0
    local_pairs: int = 0
    #: Simulated reduce-phase time (deterministic cost model; see
    #: :func:`repro.mapreduce.reducer.simulated_reduce_seconds`).
    reduce_seconds: float = 0.0
    #: Measured wall-clock time of the same work (jitters with machine load;
    #: kept for calibrating the model, never used in figure rows).
    reduce_wall_seconds: float = 0.0
    output_keys: int = 0

    def snapshot(self) -> dict[str, float]:
        """The metrics as a plain dictionary."""
        return {
            "reducer_id": self.reducer_id,
            "payload_bytes_received": self.payload_bytes_received,
            "wire_bytes_received": self.wire_bytes_received,
            "packets_received": self.packets_received,
            "pairs_received": self.pairs_received,
            "local_pairs": self.local_pairs,
            "reduce_seconds": self.reduce_seconds,
            "reduce_wall_seconds": self.reduce_wall_seconds,
            "output_keys": self.output_keys,
        }


@dataclass
class JobResult:
    """Outcome of one MapReduce run."""

    job_name: str
    shuffle_mode: str
    output: dict[str, Any] = field(default_factory=dict)
    reducer_metrics: dict[int, ReducerMetrics] = field(default_factory=dict)
    map_output_pairs: int = 0
    map_output_bytes: int = 0
    total_packets_sent: int = 0
    simulated_seconds: float = 0.0

    def total_reducer_bytes(self) -> int:
        """Bytes of intermediate data received by all reducers over the network."""
        return sum(m.payload_bytes_received for m in self.reducer_metrics.values())

    def total_reducer_packets(self) -> int:
        """Packets received by all reducers over the network."""
        return sum(m.packets_received for m in self.reducer_metrics.values())

    def total_reduce_seconds(self) -> float:
        """Total reduce-phase processing time across reducers."""
        return sum(m.reduce_seconds for m in self.reducer_metrics.values())

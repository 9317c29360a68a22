"""Shuffle transports: how map output reaches the reducers.

The paper's evaluation compares three shuffle paths over the same job:

1. the original TCP-based exchange (baseline i, :class:`repro.baselines.
   tcp_shuffle.TcpShuffle`),
2. UDP with the DAIET protocol but no switch aggregation (baseline ii,
   :class:`repro.baselines.udp_shuffle.UdpShuffle`),
3. DAIET with in-network aggregation (:class:`DaietShuffle`, below).

All three implement :class:`ShuffleTransport`, so the
:class:`~repro.mapreduce.master.MapReduceMaster` can run the identical job over
any of them and the benchmark harness can compute the reduction ratios of
Figure 3 from the per-reducer metrics.

Map output destined to a reducer co-located on the same worker host never
crosses the network (it is handed over locally), consistently across all
transports, so comparisons stay fair.

Who owns what: the master hands out tasks and never touches a transport; a
shuffle owns what is MapReduce's (one stream per worker host and reducer,
local hand-offs, one raw :class:`ReducerBuffer` per reducer, the
:class:`ShuffleAccounting`); the wire belongs to the transport underneath.
For DAIET that is a :class:`~repro.core.daiet.DaietSystem` on the cluster's
simulator, the same host shim every other experiment drives, so
:class:`DaietShuffle` builds no controller, agent, channel or packet itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import JobError
from repro.core.packet import DaietPacket, DaietPacketType
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.job import JobSpec, TaskPlacement
from repro.mapreduce.mapper import MapOutput
from repro.mapreduce.reducer import ReduceTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core <-> transport)
    from repro.transport.packets import MessagePayload


@dataclass
class ShuffleAccounting:
    """Sender-side accounting shared by every transport."""

    packets_sent: int = 0
    payload_bytes_sent: int = 0
    local_pairs: int = 0
    network_pairs: int = 0


@dataclass
class ReducerBuffer:
    """Network input buffered for one reducer until the simulation has run.

    Datagram transports (DAIET, the UDP baseline) collect unsorted ``pairs``
    and count END markers against ``expected_ends``; stream transports (TCP,
    with or without a worker-level combiner) collect one pre-sorted run per
    message and expect no END.
    """

    tree_id: int = 0
    expected_ends: int = 0
    ends_seen: int = 0
    pairs: list[tuple[str, int]] = field(default_factory=list)
    runs: list[list[tuple[str, int]]] = field(default_factory=list)
    payload_bytes: int = 0

    def receive_packet(self, packet) -> None:
        """Host receiver of a datagram transport: this tree's DAIET packets."""
        if not isinstance(packet, DaietPacket) or packet.tree_id != self.tree_id:
            return
        self.payload_bytes += packet.payload_bytes()
        if packet.packet_type is DaietPacketType.END:
            self.ends_seen += 1
        else:
            self.pairs.extend(packet.pairs)

    def receive_run(self, _src: str, payload: "MessagePayload") -> None:
        """Listener of a stream transport: one sorted run per message."""
        if payload.kind != "map_output":
            return
        self.runs.append(list(payload.data))
        self.payload_bytes += payload.meta.get("serialized_bytes", 0)


class ShuffleTransport(ABC):
    """Interface of a shuffle path between map and reduce tasks."""

    #: Human-readable transport name, used in results and reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self.accounting = ShuffleAccounting()
        self._cluster: Cluster | None = None
        self._spec: JobSpec | None = None
        self._placement: TaskPlacement | None = None
        self._reduce_tasks: dict[int, ReduceTask] = {}
        #: Network input per reducer id, filled while the simulation runs.
        self._buffers: dict[int, ReducerBuffer] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def prepare(
        self,
        cluster: Cluster,
        spec: JobSpec,
        placement: TaskPlacement,
        reduce_tasks: dict[int, ReduceTask],
    ) -> None:
        """Install receivers (and any network state) before the map phase."""
        self._cluster = cluster
        self._spec = spec
        self._placement = placement
        self._reduce_tasks = reduce_tasks
        self._prepare()

    @abstractmethod
    def _prepare(self) -> None:
        """Transport-specific preparation."""

    @abstractmethod
    def transfer(self, map_outputs: list[MapOutput]) -> None:
        """Inject the map output into the network (and local hand-offs)."""

    def finalize(self) -> None:
        """Deliver buffered network input to the reduce tasks after the run."""
        for reducer_id, buffer in self._buffers.items():
            if buffer.ends_seen < buffer.expected_ends:
                raise JobError(
                    f"reducer {reducer_id} finished with {buffer.ends_seen} END "
                    f"packets out of {buffer.expected_ends} expected"
                )
            task = self.reduce_task(reducer_id)
            for run in buffer.runs:
                task.add_sorted_run(run, from_network=True)
            task.add_unsorted_pairs(buffer.pairs, from_network=True)
            task.metrics.payload_bytes_received += buffer.payload_bytes

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    @property
    def cluster(self) -> Cluster:
        if self._cluster is None:
            raise JobError("shuffle transport used before prepare()")
        return self._cluster

    @property
    def spec(self) -> JobSpec:
        if self._spec is None:
            raise JobError("shuffle transport used before prepare()")
        return self._spec

    @property
    def placement(self) -> TaskPlacement:
        if self._placement is None:
            raise JobError("shuffle transport used before prepare()")
        return self._placement

    def reduce_task(self, reducer_id: int) -> ReduceTask:
        """The reduce task with the given id."""
        try:
            return self._reduce_tasks[reducer_id]
        except KeyError as exc:
            raise JobError(f"no reduce task with id {reducer_id}") from exc

    def pairs_by_host(
        self, map_outputs: list[MapOutput], reducer_id: int
    ) -> dict[str, list[tuple[str, int]]]:
        """Group the pairs destined to one reducer by sending mapper host.

        The DAIET host shim combines the output of co-located map tasks into a
        single stream per (host, reducer) pair, terminated by one END packet,
        which is also what keeps the switch's children count host-based.
        """
        grouped: dict[str, list[tuple[str, int]]] = defaultdict(list)
        for output in map_outputs:
            pairs = output.partition(reducer_id)
            if pairs:
                grouped[output.host].extend(pairs)
            else:
                # A mapper with an empty partition still participates in the
                # END protocol, so record the host with no pairs.
                grouped.setdefault(output.host, [])
        return dict(grouped)


class DaietShuffle(ShuffleTransport):
    """The paper's shuffle: DAIET packets aggregated inside the switches.

    The host shim is a :class:`~repro.core.daiet.DaietSystem` running on the
    cluster's simulator; what stays here is MapReduce's: one stream per
    (worker host, reducer), local partitions, raw-pair buffers, accounting.
    """

    name = "daiet"

    def __init__(self, config: DaietConfig | None = None) -> None:
        super().__init__()
        self.config = config or DaietConfig()
        #: The DAIET stack of the running job (``None`` before ``prepare``).
        self.system: DaietSystem | None = None

    def _prepare(self) -> None:
        cluster = self.cluster
        self.system = DaietSystem(cluster.topology, self.config, simulator=cluster.simulator)
        reducer_hosts = self.placement.reducer_hosts
        job = self.system.install_job(
            mappers=sorted(set(self.placement.mapper_hosts)),
            reducers=reducer_hosts,
            function=self.spec.aggregation,
        )
        for reducer_id, host in enumerate(reducer_hosts):
            tree = job.tree_for_reducer(host)
            buffer = self._buffers[reducer_id] = ReducerBuffer(
                tree_id=tree.tree_id,
                expected_ends=tree.children_count(host),
            )
            # The reduce-time model charges the sort of the pairs a reducer
            # *received*, so the job collects them raw instead of combined.
            self.system.attach_receiver(tree, buffer.receive_packet)

    def transfer(self, map_outputs: list[MapOutput]) -> None:
        if self.system is None:
            raise JobError("DaietShuffle.transfer() called before prepare()")
        for reducer_id, reducer_host in enumerate(self.placement.reducer_hosts):
            for mapper_host, pairs in self.pairs_by_host(map_outputs, reducer_id).items():
                if mapper_host == reducer_host:
                    # Local partition: handed to the reduce task directly.
                    self.reduce_task(reducer_id).add_unsorted_pairs(pairs, from_network=False)
                    self.accounting.local_pairs += len(pairs)
                    continue
                self.accounting.network_pairs += len(pairs)
                window = self.system.send_pairs(mapper_host, reducer_host, pairs)
                self.accounting.packets_sent += len(window)
                self.accounting.payload_bytes_sent += window.payload_bytes()

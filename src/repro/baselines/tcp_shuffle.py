"""Baseline (i): the original TCP-based data exchange.

Each map task sends its sorted partition to each reducer as one TCP stream;
the kernel segments it at the MSS, so a partition of ``n`` serialized bytes
becomes ``ceil(n / MSS)`` large segments. Reducers receive one pre-sorted run
per map task and merge them — no aggregation happens anywhere before the
reduce function itself.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import DEFAULT_TCP_MSS
from repro.core.errors import JobError
from repro.mapreduce.mapper import MapOutput
from repro.mapreduce.shuffle import ReducerBuffer, ShuffleTransport
from repro.transport.packets import MessagePayload
from repro.transport.tcp import TcpTransport

#: Destination port reducers listen on for shuffle streams.
SHUFFLE_PORT = 7070


class TcpShuffle(ShuffleTransport):
    """The unmodified MapReduce shuffle over (modelled) TCP."""

    name = "tcp"
    port = SHUFFLE_PORT

    def __init__(self, mss: int = DEFAULT_TCP_MSS) -> None:
        super().__init__()
        self.mss = mss
        self.transport: TcpTransport | None = None

    def _prepare(self) -> None:
        self.transport = TcpTransport(self.cluster.simulator, mss=self.mss)
        for reducer_id, host in enumerate(self.placement.reducer_hosts):
            buffer = self._buffers[reducer_id] = ReducerBuffer()
            self.transport.listen(host, self.port, buffer.receive_run)

    def _streams(
        self, map_outputs: list[MapOutput]
    ) -> Iterator[tuple[str, int, list[tuple[str, int]]]]:
        """``(sending host, reducer id, sorted run)`` per stream, in send order.

        Here one stream per map task and reducer; a combiner overrides this.
        """
        for output in map_outputs:
            for reducer_id in range(len(self.placement.reducer_hosts)):
                yield output.host, reducer_id, output.sorted_partition(reducer_id)

    def transfer(self, map_outputs: list[MapOutput]) -> None:
        if self.transport is None:
            raise JobError(f"{type(self).__name__}.transfer() called before prepare()")
        pair_bytes = self.spec.daiet.pair_bytes
        reducer_hosts = self.placement.reducer_hosts
        for host, reducer_id, run in self._streams(map_outputs):
            if not run:
                continue
            if host == reducer_hosts[reducer_id]:
                self.reduce_task(reducer_id).add_sorted_run(run, from_network=False)
                self.accounting.local_pairs += len(run)
                continue
            self.accounting.network_pairs += len(run)
            serialized_bytes = len(run) * pair_bytes
            segments = self.transport.send_message(
                src=host,
                dst=reducer_hosts[reducer_id],
                message_bytes=serialized_bytes,
                payload=MessagePayload(
                    kind="map_output",
                    data=run,
                    meta={"serialized_bytes": serialized_bytes},
                ),
                dport=self.port,
            )
            self.accounting.packets_sent += segments
            self.accounting.payload_bytes_sent += serialized_bytes

"""Baseline (ii): UDP with the DAIET protocol but no in-network aggregation.

Mappers packetize their partitions exactly like DAIET (small UDP packets with
at most ten fixed-size pairs plus an END marker), but the switches merely
forward the packets: no aggregation trees are installed. The reducer therefore
receives the full, unordered intermediate data. This isolates the effect of the
packet format (many small packets) from the effect of in-network aggregation,
which is how the paper separates the two packet-count reductions in Figure 3.
"""

from __future__ import annotations

from repro.core.config import DaietConfig
from repro.core.errors import JobError
from repro.core.packet import packetize_pairs
from repro.mapreduce.mapper import MapOutput
from repro.mapreduce.shuffle import ReducerBuffer, ShuffleTransport


class UdpShuffle(ShuffleTransport):
    """The DAIET wire protocol without any switch-side aggregation."""

    name = "udp"

    def __init__(self, config: DaietConfig | None = None) -> None:
        super().__init__()
        self.config = config or DaietConfig()

    def _prepare(self) -> None:
        # Tree ids are still assigned (the packet format requires one), but no
        # controller state is installed, so the daiet_steer tables stay empty
        # and every switch simply forwards by destination.
        for reducer_id, host in enumerate(self.placement.reducer_hosts):
            buffer = self._buffers[reducer_id] = ReducerBuffer(tree_id=reducer_id + 1)
            self.cluster.simulator.host(host).set_receiver(buffer.receive_packet)

    def transfer(self, map_outputs: list[MapOutput]) -> None:
        if not self._buffers:
            raise JobError("UdpShuffle.transfer() called before prepare()")
        for reducer_id, reducer_host in enumerate(self.placement.reducer_hosts):
            buffer = self._buffers[reducer_id]
            for mapper_host, pairs in self.pairs_by_host(map_outputs, reducer_id).items():
                if mapper_host == reducer_host:
                    self.reduce_task(reducer_id).add_unsorted_pairs(pairs, from_network=False)
                    self.accounting.local_pairs += len(pairs)
                    continue
                buffer.expected_ends += 1
                self.accounting.network_pairs += len(pairs)
                # One burst event per (mapper, reducer) stream: same wire
                # behaviour as per-packet sends, one scheduler entry.
                window = packetize_pairs(
                    pairs,
                    tree_id=buffer.tree_id,
                    src=mapper_host,
                    dst=reducer_host,
                    config=self.config,
                    include_end=True,
                )
                self.cluster.simulator.send_burst(mapper_host, window)
                self.accounting.packets_sent += len(window)
                self.accounting.payload_bytes_sent += window.payload_bytes()

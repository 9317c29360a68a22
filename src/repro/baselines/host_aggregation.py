"""Reference point: worker-level (host-side) aggregation.

The paper's introduction notes that frameworks such as MapReduce, Pregel and
DryadLINQ already let developers register aggregation functions, "however, the
aggregation functions are only applied at the worker-level, missing the
opportunity of achieving better traffic reduction ratios when applied at the
network level". This transport models that design point: every worker host
combines the output of its local map tasks per reducer before sending it over
TCP. It is the natural comparison for the ablation that asks how much of
DAIET's gain comes from aggregation *location* rather than from aggregation
per se.
"""

from __future__ import annotations

from typing import Iterator

from repro.baselines.tcp_shuffle import TcpShuffle
from repro.core.functions import aggregate_pairs
from repro.mapreduce.mapper import MapOutput

#: Destination port reducers listen on for combined shuffle streams.
SHUFFLE_PORT = 7071


class HostAggregationShuffle(TcpShuffle):
    """Worker-level combiners over TCP (NetAgg/worker-combiner style baseline)."""

    name = "host_agg"
    port = SHUFFLE_PORT

    def _streams(
        self, map_outputs: list[MapOutput]
    ) -> Iterator[tuple[str, int, list[tuple[str, int]]]]:
        """One stream per worker host and reducer: the host's combined output."""
        function = self.spec.aggregation_function()
        for reducer_id in range(len(self.placement.reducer_hosts)):
            for host, pairs in self.pairs_by_host(map_outputs, reducer_id).items():
                yield host, reducer_id, sorted(aggregate_pairs(pairs, function).items())

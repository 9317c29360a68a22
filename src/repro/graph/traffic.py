"""Per-iteration traffic accounting for Pregel runs (the Figure 1(c) metric).

"The traffic reduction ratio is calculated by combining all the messages sent
to the same destination into a single message by applying the aggregation
function used by the algorithm [...] inside the network." (Section 3.)

For every superstep we count the messages the algorithm emits and the number
of distinct destination vertices; their ratio is the fraction of traffic that
in-network aggregation could remove. Counters are kept both for all messages
and for the subset that actually crosses worker boundaries (the traffic a
network device could see), so the harness can report either view.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SuperstepTraffic:
    """Message statistics of one superstep."""

    superstep: int
    messages: int = 0
    distinct_destinations: int = 0
    remote_messages: int = 0
    distinct_remote_destinations: int = 0
    active_vertices: int = 0

    @property
    def reduction_ratio(self) -> float:
        """Traffic-reduction ratio over all messages (the paper's metric)."""
        if self.messages == 0:
            return 0.0
        return 1.0 - self.distinct_destinations / self.messages


@dataclass
class TrafficTrace:
    """Traffic statistics across the supersteps of one algorithm run."""

    algorithm: str
    supersteps: list[SuperstepTraffic] = field(default_factory=list)

    def append(self, traffic: SuperstepTraffic) -> None:
        """Record one superstep."""
        self.supersteps.append(traffic)

    def total_messages(self) -> int:
        """Messages emitted over the whole run."""
        return sum(s.messages for s in self.supersteps)

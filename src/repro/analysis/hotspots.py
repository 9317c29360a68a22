"""Online hotspot detection over per-switch traffic statistics.

The O&M traffic-hotspot-localization line of work (see PAPERS.md) detects
overloaded aggregation points from periodically sampled per-device
counters. This module reproduces that control-loop shape against the
simulator: a :class:`HotspotDetector` samples the ``packets_in`` counter
(:class:`~repro.dataplane.switch.SwitchCounters`) of each monitored switch
on the simulation clock, computes each switch's share of the packets it
processed *in the last window*, and flags a switch whose share exceeds a
threshold — typically an aggregation switch that ECMP or naive tree
placement concentrated too many trees onto. A packet that dies at a
crashed switch is a ``fault_drops`` entry, not a packet the switch
processed, so it does not count toward the switch's share.

A flagged hotspot is reported through the ``on_hotspot`` callback, which
the churn experiment wires to
:meth:`~repro.core.failover.FailoverManager.move_tree` so detection
*triggers* controller-driven tree rebalancing. Detection is entirely
deterministic: sampling happens at fixed simulated times and all
iteration is over sorted names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import NetworkSimulator

__all__ = ["HotspotConfig", "HotspotDetector", "HotspotEvent"]


@dataclass(frozen=True)
class HotspotConfig:
    """Tunables of the hotspot control loop."""

    #: Sampling period in simulated seconds.
    sample_interval: float = 5e-4
    #: A switch is flagged when its share of the window's monitored packets
    #: exceeds this fraction.
    share_threshold: float = 0.6
    #: Windows with fewer monitored packets than this are ignored (idle or
    #: draining fabric — shares would be noise).
    min_window_packets: int = 50
    #: Samples to skip after flagging a switch before it may be flagged
    #: again (rebalancing needs time to take effect).
    cooldown_samples: int = 4
    #: Hard cap on samples, bounding simulation length.
    max_samples: int = 200

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise SimulationError("sample_interval must be positive")
        if not 0.0 < self.share_threshold <= 1.0:
            raise SimulationError("share_threshold must lie in (0, 1]")
        if self.max_samples <= 0:
            raise SimulationError("max_samples must be positive")


@dataclass(frozen=True)
class HotspotEvent:
    """One flagged hotspot: where, when and how concentrated."""

    time: float
    switch: str
    share: float
    window_packets: int

    def describe(self) -> str:
        """Stable one-line rendering for logs and reports."""
        return (
            f"t={self.time:.6f} hotspot {self.switch} "
            f"share={self.share:.3f} window={self.window_packets}"
        )


class HotspotDetector:
    """Periodic per-switch traffic sampling with threshold flagging."""

    def __init__(
        self,
        sim: "NetworkSimulator",
        switches: Iterable[str],
        config: HotspotConfig | None = None,
        on_hotspot: Callable[[HotspotEvent], None] | None = None,
    ) -> None:
        self.sim = sim
        self.switches = sorted(switches)
        if not self.switches:
            raise SimulationError("hotspot detector needs at least one switch")
        #: Each monitored switch's counters; ``sim.switch`` raises on a name
        #: that is unknown or not a switch.
        self._counters = {name: sim.switch(name).switch.counters for name in self.switches}
        self.config = config or HotspotConfig()
        self.on_hotspot = on_hotspot
        #: Every flagged hotspot, in detection order.
        self.events: list[HotspotEvent] = []
        self._last_packets: dict[str, int] = {name: 0 for name in self.switches}
        self._cooldown: dict[str, int] = {}
        self._samples = 0
        self._started = False

    def start(self) -> None:
        """Arm the sampling loop on the simulation scheduler."""
        if self._started:
            return
        self._started = True
        self._last_packets = self._packets_in()
        self.sim.scheduler.schedule(self.config.sample_interval, self._tick)

    def _packets_in(self) -> dict[str, int]:
        """Each monitored switch's ``SwitchCounters.packets_in`` right now."""
        return {name: counters.packets_in for name, counters in self._counters.items()}

    def _tick(self) -> None:
        self._samples += 1
        deltas: dict[str, int] = {}
        total = 0
        for name, packets in self._packets_in().items():
            deltas[name] = packets - self._last_packets[name]
            self._last_packets[name] = packets
            total += deltas[name]
        for name in sorted(self._cooldown):
            self._cooldown[name] -= 1
            if self._cooldown[name] <= 0:
                del self._cooldown[name]
        config = self.config
        if total >= config.min_window_packets:
            for name in self.switches:
                share = deltas[name] / total
                if share > config.share_threshold and name not in self._cooldown:
                    event = HotspotEvent(
                        time=self.sim.now,
                        switch=name,
                        share=share,
                        window_packets=total,
                    )
                    self.events.append(event)
                    self._cooldown[name] = config.cooldown_samples
                    if self.on_hotspot is not None:
                        self.on_hotspot(event)
        if self._samples < config.max_samples:
            self.sim.scheduler.schedule(config.sample_interval, self._tick)

    def shares(self) -> dict[str, float]:
        """Cumulative per-switch share of all monitored packets so far."""
        counts = self._packets_in()
        total = sum(counts.values())
        if total == 0:
            return {name: 0.0 for name in self.switches}
        return {name: count / total for name, count in counts.items()}

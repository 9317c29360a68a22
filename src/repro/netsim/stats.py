"""Traffic statistics collected during a simulation run.

The evaluation in the paper reads three kinds of numbers from its testbed:
bytes and packets received by each reducer (host), packets traversing the
switch, and totals per baseline. :class:`TrafficStats` accumulates the same
observations during a simulated run so the benchmark harness can compute the
reduction ratios of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class PerDeviceTraffic:
    """Packets/bytes observed at one device."""

    packets: int = 0
    bytes: int = 0

    def record(self, nbytes: int) -> None:
        """Add one packet of ``nbytes`` bytes."""
        self.packets += 1
        self.bytes += nbytes


@dataclass
class TrafficStats:
    """Counters keyed by device and link name.

    The ``record_*`` methods run once per packet per hop; they avoid the
    ``setdefault(..., PerDeviceTraffic())`` idiom, which allocates a fresh
    counter object on every call even when the key already exists.
    """

    host_sent: dict[str, PerDeviceTraffic] = field(default_factory=dict)
    host_received: dict[str, PerDeviceTraffic] = field(default_factory=dict)
    switch_traffic: dict[str, PerDeviceTraffic] = field(default_factory=dict)
    link_traffic: dict[str, PerDeviceTraffic] = field(default_factory=dict)
    drops: dict[str, int] = field(default_factory=dict)
    losses: dict[str, int] = field(default_factory=dict)
    #: Packets destroyed by an injected fault (crashed device, downed link),
    #: keyed by the device or link that sank them. Kept separate from
    #: ``drops``/``losses`` so fault-churn runs can report (and the sanitizer
    #: can balance) fault damage distinctly from ordinary loss.
    fault_drops: dict[str, int] = field(default_factory=dict)
    #: Packets ECN-marked (CE bit set in flight) per link, counted on the
    #: False->True transition only — a retransmission of an already-marked
    #: packet is not re-counted. Only populated when the simulator runs with
    #: an ``ecn_threshold_bytes`` configured.
    ecn_marked: dict[str, int] = field(default_factory=dict)
    #: Packets tail-dropped at a full switch egress queue, per link. Only
    #: populated when the simulator runs with ``switch_buffer_bytes`` set;
    #: kept separate from random ``losses`` so incast reports can tell
    #: congestion drops from lossy-link drops.
    queue_drops: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_host_sent(self, host: str, nbytes: int, packets: int = 1) -> None:
        """Account a packet (or a window of ``packets``) injected by a host."""
        traffic = self.host_sent.get(host)
        if traffic is None:
            traffic = self.host_sent[host] = PerDeviceTraffic()
        traffic.packets += packets
        traffic.bytes += nbytes

    def record_host_received(self, host: str, nbytes: int) -> None:
        """Account a packet delivered to a host."""
        traffic = self.host_received.get(host)
        if traffic is None:
            traffic = self.host_received[host] = PerDeviceTraffic()
        traffic.packets += 1
        traffic.bytes += nbytes

    def record_switch(self, switch: str, nbytes: int) -> None:
        """Account a packet arriving at a switch."""
        traffic = self.switch_traffic.get(switch)
        if traffic is None:
            traffic = self.switch_traffic[switch] = PerDeviceTraffic()
        traffic.packets += 1
        traffic.bytes += nbytes

    def record_link(self, link_name: str, nbytes: int) -> None:
        """Account a packet transmitted over a link."""
        traffic = self.link_traffic.get(link_name)
        if traffic is None:
            traffic = self.link_traffic[link_name] = PerDeviceTraffic()
        traffic.packets += 1
        traffic.bytes += nbytes

    def record_drop(self, device: str) -> None:
        """Account a packet transmitted towards an unconnected port."""
        self.drops[device] = self.drops.get(device, 0) + 1

    def record_loss(self, link_name: str) -> None:
        """Account a packet lost in flight on a lossy link."""
        self.losses[link_name] = self.losses.get(link_name, 0) + 1

    def record_fault_drop(self, where: str) -> None:
        """Account a packet destroyed by an injected fault at ``where``."""
        self.fault_drops[where] = self.fault_drops.get(where, 0) + 1

    def record_ecn_mark(self, link_name: str) -> None:
        """Account a packet ECN-marked on a congested link."""
        self.ecn_marked[link_name] = self.ecn_marked.get(link_name, 0) + 1

    def record_queue_drop(self, link_name: str) -> None:
        """Account a packet tail-dropped at a full switch egress queue."""
        self.queue_drops[link_name] = self.queue_drops.get(link_name, 0) + 1

    def total_losses(self) -> int:
        """Packets lost in flight across every link."""
        return sum(self.losses.values())

    def total_fault_drops(self) -> int:
        """Packets destroyed by injected faults across every device and link."""
        return sum(self.fault_drops.values())

    def total_ecn_marked(self) -> int:
        """Packets ECN-marked across every link."""
        return sum(self.ecn_marked.values())

    def total_queue_drops(self) -> int:
        """Packets tail-dropped at full switch egress queues across every link."""
        return sum(self.queue_drops.values())

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def received_bytes(self, host: str) -> int:
        """Bytes delivered to ``host``."""
        return self.host_received.get(host, PerDeviceTraffic()).bytes

    def received_packets(self, host: str) -> int:
        """Packets delivered to ``host``."""
        return self.host_received.get(host, PerDeviceTraffic()).packets

    def sent_bytes(self, host: str) -> int:
        """Bytes injected by ``host``."""
        return self.host_sent.get(host, PerDeviceTraffic()).bytes

    def sent_packets(self, host: str) -> int:
        """Packets injected by ``host``."""
        return self.host_sent.get(host, PerDeviceTraffic()).packets

    def total_received_bytes(self, hosts: list[str] | None = None) -> int:
        """Bytes delivered to the given hosts (or all hosts)."""
        names = hosts if hosts is not None else list(self.host_received)
        return sum(self.received_bytes(h) for h in names)

    def total_received_packets(self, hosts: list[str] | None = None) -> int:
        """Packets delivered to the given hosts (or all hosts)."""
        names = hosts if hosts is not None else list(self.host_received)
        return sum(self.received_packets(h) for h in names)

    def total_link_bytes(self) -> int:
        """Bytes carried over every link (each hop counted once)."""
        return sum(t.bytes for t in self.link_traffic.values())

    def total_link_packets(self) -> int:
        """Packets carried over every link (each hop counted once)."""
        return sum(t.packets for t in self.link_traffic.values())

    def per_host_received(self) -> dict[str, PerDeviceTraffic]:
        """Copy of the per-host delivery counters."""
        return dict(self.host_received)

    def snapshot(self) -> dict[str, dict[str, tuple[int, int] | int]]:
        """Every counter as plain nested dictionaries.

        Used by the determinism tests to compare two runs bit-for-bit: two
        identical simulations must produce identical snapshots (including
        insertion order, which reflects event order).
        """
        def _traffic(table: dict[str, PerDeviceTraffic]) -> dict[str, tuple[int, int]]:
            return {name: (t.packets, t.bytes) for name, t in table.items()}

        return {
            "host_sent": _traffic(self.host_sent),
            "host_received": _traffic(self.host_received),
            "switch_traffic": _traffic(self.switch_traffic),
            "link_traffic": _traffic(self.link_traffic),
            "drops": dict(self.drops),
            "losses": dict(self.losses),
            "fault_drops": dict(self.fault_drops),
            "ecn_marked": dict(self.ecn_marked),
            "queue_drops": dict(self.queue_drops),
        }

    def reset(self) -> None:
        """Clear every counter."""
        self.host_sent.clear()
        self.host_received.clear()
        self.switch_traffic.clear()
        self.link_traffic.clear()
        self.drops.clear()
        self.losses.clear()
        self.fault_drops.clear()
        self.ecn_marked.clear()
        self.queue_drops.clear()

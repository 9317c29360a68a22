"""Traffic statistics no single device owns.

The evaluation in the paper reads three kinds of numbers from its testbed:
bytes and packets received by each reducer (host), packets traversing the
switch, and totals per baseline. Each is counted once, by its owner: a host's
NIC traffic in its :class:`~repro.netsim.devices.HostCounters`, a switch's in
its :class:`~repro.dataplane.switch.SwitchCounters`, and a link's in the
:class:`LinkTraffic` record :class:`TrafficStats` keeps for it. The rest of
:class:`TrafficStats` says where packets left the network and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class LinkTraffic:
    """Packets/bytes carried over one link, both directions together."""

    packets: int = 0
    bytes: int = 0


@dataclass
class TrafficStats:
    """Per-link traffic and the drop-reason tables, keyed by name.

    The simulator creates every link's :class:`LinkTraffic` record when it
    builds its port maps and updates it in place, so recording a
    transmission is two integer additions and no lookup.
    """

    link_traffic: dict[str, LinkTraffic] = field(default_factory=dict)
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

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
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

    def total_link_bytes(self) -> int:
        """Bytes carried over every link (each hop counted once)."""
        return sum(t.bytes for t in self.link_traffic.values())

    def total_link_packets(self) -> int:
        """Packets carried over every link (each hop counted once)."""
        return sum(t.packets for t in self.link_traffic.values())

    def snapshot(self) -> dict[str, dict[str, tuple[int, int] | int]]:
        """Every counter as plain nested dictionaries.

        Used by the determinism tests to compare two runs bit-for-bit: two
        identical simulations must produce identical snapshots (including
        insertion order, which in the drop tables reflects event order).
        """
        return {
            "link_traffic": {
                name: (t.packets, t.bytes) for name, t in self.link_traffic.items()
            },
            "drops": dict(self.drops),
            "losses": dict(self.losses),
            "fault_drops": dict(self.fault_drops),
            "ecn_marked": dict(self.ecn_marked),
            "queue_drops": dict(self.queue_drops),
        }

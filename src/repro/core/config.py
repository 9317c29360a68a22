"""Configuration objects for the DAIET system.

The values and their defaults follow Section 5 of the paper: 16K key/value
register slots per tree, 16-byte fixed-size keys, 4-byte integer values, and at
most 10 key-value pairs per packet (the parseable-bytes limit of current P4
hardware, roughly 200-300 B per packet).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError, TransportError

#: Default number of key/value register slots per aggregation tree (paper: 16K).
DEFAULT_REGISTER_SLOTS = 16 * 1024

#: Default fixed key width in bytes (paper: words of maximum 16 characters).
DEFAULT_KEY_WIDTH = 16

#: Serialized width of a value in bytes (paper: 4 B integer value). Not a
#: knob: the packetizer refuses any value outside this signed width, and a
#: switch register holds one such value (see ``core/packet.py``).
VALUE_WIDTH = 4

#: Default maximum number of key-value pairs carried by one DAIET packet
#: (paper: "one DAIET packet can contain at most 10 key-value pairs").
DEFAULT_PAIRS_PER_PACKET = 10

#: Size in bytes of the DAIET preamble (tree id, packet type, number of pairs).
DAIET_PREAMBLE_BYTES = 8

#: Per-packet overhead of the simulated UDP/IP/Ethernet encapsulation.
UDP_HEADER_BYTES = 8
IP_HEADER_BYTES = 20
ETHERNET_HEADER_BYTES = 14

#: Per-segment overhead of the simulated TCP/IP/Ethernet encapsulation.
TCP_HEADER_BYTES = 20

#: Default TCP maximum segment size used by the TCP baseline (standard 1500 B
#: MTU minus IP and TCP headers).
DEFAULT_TCP_MSS = 1460


#: Congestion-controller names a :class:`TransportTuning` accepts.
CONGESTION_CONTROLLERS = ("none", "aimd")


@dataclass(frozen=True)
class TransportTuning:
    """Adaptive-transport knobs shared by every windowed sender.

    The defaults reproduce the historical transport exactly: fixed
    retransmission timeout, no congestion window.

    Parameters
    ----------
    adaptive_rto:
        Estimate the RTO from SRTT/RTTVAR samples (RFC 6298) instead of
        using the base timeout as a fixed RTO.
    rto_floor:
        Lower clamp on the retransmission timeout. In fixed-RTO mode a floor
        above the base timeout simply raises the fixed RTO (this is how the
        baseline comparison's historical 2 ms constant is expressed); in
        adaptive mode it bounds how aggressively the estimator may retransmit.
        ``None`` leaves the base timeout unclamped.
    rto_ceiling:
        Upper clamp on the (adaptive, backed-off) retransmission timeout.
    congestion_control:
        ``"none"`` (unlimited window) or ``"aimd"`` (slow start + additive
        increase, multiplicative decrease on loss).
    initial_cwnd:
        Initial congestion window in packets.
    min_cwnd:
        Smallest window the controller may shrink to.
    """

    adaptive_rto: bool = False
    rto_floor: float | None = None
    rto_ceiling: float = 0.25
    congestion_control: str = "none"
    initial_cwnd: int = 10
    min_cwnd: int = 2

    def __post_init__(self) -> None:
        if self.congestion_control not in CONGESTION_CONTROLLERS:
            raise TransportError(
                f"unknown congestion controller {self.congestion_control!r}; "
                f"expected one of {CONGESTION_CONTROLLERS}"
            )
        if self.rto_floor is not None and self.rto_floor <= 0:
            raise TransportError("rto_floor must be positive when set")
        if self.rto_ceiling <= 0:
            raise TransportError("rto_ceiling must be positive")
        if self.initial_cwnd <= 0:
            raise TransportError("initial_cwnd must be positive")
        if self.min_cwnd <= 0:
            raise TransportError("min_cwnd must be positive")

    def base_timeout(self, retransmit_timeout: float) -> float:
        """The base timeout of a sender configured with ``retransmit_timeout``.

        In fixed-RTO mode a floor above it raises it (and with it whatever
        else the owner paces by the timeout, such as a delayed ACK); in
        adaptive mode the estimator clamps against the floor instead.
        """
        if not self.adaptive_rto and self.rto_floor is not None:
            return max(retransmit_timeout, self.rto_floor)
        return retransmit_timeout


@dataclass(frozen=True)
class DaietConfig:
    """Static configuration of a DAIET deployment.

    Parameters
    ----------
    register_slots:
        Number of single-element hash buckets in the per-tree key and value
        register arrays.
    key_width:
        Fixed serialized width of a key in bytes. Keys longer than this are
        rejected; shorter keys are padded (the paper notes this padding as an
        overhead to be removed in future work). Values have the fixed width
        :data:`VALUE_WIDTH` (4 B signed), which is the wire contract, not a
        field.
    pairs_per_packet:
        Maximum number of key-value pairs per DAIET data packet. Also the
        capacity of a tree's spillover bucket: the paper sizes it as "as
        many entries as the number of pairs that can fit in one packet".
    reliability:
        Enable the full end-host reliability layer: per-(tree, sender)
        sequence numbers on every DATA/END packet, cumulative+selective ACKs,
        timeout-driven retransmission at the hosts and reactive
        retransmission of buffered flush packets at the switches. Makes
        aggregation results exact under non-zero ``Link.loss_rate``.
    retransmit_timeout:
        Base retransmission timeout in (simulated) seconds for host senders;
        also paces the receiver-side pull timer. Doubles per consecutive
        timeout up to a small cap.
    ack_window:
        A receiver acknowledges every ``ack_window``-th in-order packet
        (duplicates and END markers are acknowledged immediately), so ACK
        overhead is ~1/ack_window of the data packet count.
    max_retransmits:
        Per-channel cap on consecutive unacknowledged retransmission rounds
        before the sender gives up and raises, bounding simulation time on
        pathological loss rates.
    retain_for_replay:
        Keep every sent packet (not just unacknowledged ones) in the host
        sender channels so the failover manager can replay a mapper's whole
        stream through a re-planned aggregation tree after a switch crash.
        The map-output buffer doubles as the recovery log; requires
        ``reliability`` to be effective.
    tuning:
        The :class:`TransportTuning` every host sender of this deployment
        runs with (adaptive RTO, congestion window). The
        default is the historical fixed-RTO, unlimited-window transport.
    reliability_policy:
        Per-tree reliability class (SAP-inspired selective reliability):
        ``"exact"`` keeps the full PR 1 protocol (the default, byte-identical
        behaviour); ``"sampled"`` keeps sequence numbers, dedup and
        retransmission but acknowledges only every
        ``sampled_ack_stride``-th ack window (duplicates, ENDs and freshly
        detected gaps are still acknowledged immediately) and degrades
        instead of raising when a sender exhausts its retries;
        ``"best_effort"`` disables the reliability protocol for the tree
        entirely — no sequence numbers, no ACKs, no retransmission — so
        losses surface as a measured, bounded aggregate deficit
        (see :mod:`repro.analysis.error_bounds`). Non-exact policies
        require ``reliability=True``: the policy selects *how much* of the
        reliability machinery a tree uses, and jobs can override it
        per tree via ``DaietSystem.install_job(policy=...)``.
    sampled_ack_stride:
        Under the ``"sampled"`` policy, acknowledge every k-th ack window
        instead of every one (and stretch the receiver pull timer by the
        same factor), cutting steady-state ACK traffic to ~1/k.
    """

    register_slots: int = DEFAULT_REGISTER_SLOTS
    key_width: int = DEFAULT_KEY_WIDTH
    pairs_per_packet: int = DEFAULT_PAIRS_PER_PACKET
    reliability: bool = False
    retransmit_timeout: float = 1e-4
    ack_window: int = 8
    max_retransmits: int = 30
    retain_for_replay: bool = False
    reliability_policy: str = "exact"
    sampled_ack_stride: int = 4
    tuning: TransportTuning = TransportTuning()

    def __post_init__(self) -> None:
        if self.register_slots <= 0:
            raise ConfigurationError("register_slots must be positive")
        if self.key_width <= 0:
            raise ConfigurationError("key_width must be positive")
        if self.pairs_per_packet <= 0:
            raise ConfigurationError("pairs_per_packet must be positive")
        if self.retransmit_timeout <= 0:
            raise ConfigurationError("retransmit_timeout must be positive")
        if self.ack_window <= 0:
            raise ConfigurationError("ack_window must be positive")
        if self.max_retransmits <= 0:
            raise ConfigurationError("max_retransmits must be positive")
        if self.reliability_policy not in ("exact", "sampled", "best_effort"):
            raise ConfigurationError(
                f"unknown reliability_policy {self.reliability_policy!r}; "
                "expected 'exact', 'sampled' or 'best_effort'"
            )
        if self.reliability_policy != "exact" and not self.reliability:
            raise ConfigurationError(
                f"reliability_policy {self.reliability_policy!r} requires "
                "reliability=True (the policy selects how much of the "
                "reliability machinery a tree uses)"
            )
        if self.sampled_ack_stride <= 0:
            raise ConfigurationError("sampled_ack_stride must be positive")

    @property
    def pair_bytes(self) -> int:
        """Serialized size of a single fixed-size key-value pair."""
        return self.key_width + VALUE_WIDTH

    def sram_bytes(self) -> int:
        """Estimate the switch SRAM needed for one aggregation tree.

        The paper estimates ~10 MB for 16K pairs with 16 B keys and 4 B values
        across the full register/index-stack layout; we account for the two
        register arrays plus the index stack (4 B per slot).
        """
        per_slot = self.key_width + VALUE_WIDTH + 4
        return self.register_slots * per_slot

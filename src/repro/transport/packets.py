"""Simulated transport-layer packets (UDP datagrams and TCP segments).

Both packet types expose the two methods the rest of the system relies on:

* ``wire_bytes()`` — the full on-the-wire size including Ethernet/IP/transport
  headers, used by links, hosts and the traffic statistics;
* ``parse_depth_bytes()`` — the headers the switch parser must read (the
  opaque payload is never parsed), charged against the bounded parse depth.

Payloads are opaque application objects plus an explicit payload size, so that
applications can attach structured data (e.g. lists of key-value pairs) without
the simulator having to serialize it for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.config import (
    ETHERNET_HEADER_BYTES,
    IP_HEADER_BYTES,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
)
from repro.core.errors import TransportError

@dataclass
class UdpDatagram:
    """A UDP datagram addressed host-to-host.

    Attributes
    ----------
    src, dst:
        Host names (the simulator's addressing scheme).
    sport, dport:
        UDP ports; applications use ``dport`` to demultiplex.
    payload:
        Opaque application payload object (may be ``None``).
    payload_bytes:
        Serialized size of the payload on the wire.
    """

    src: str
    dst: str
    sport: int = 0
    dport: int = 0
    payload: Any = None
    payload_bytes: int = 0
    #: ECN congestion-experienced bit, set in flight by a congested switch
    #: egress queue (rides in the IP header: no wire-size change).
    ecn: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise TransportError("payload_bytes must be non-negative")

    def wire_bytes(self) -> int:
        """Full frame size: Ethernet + IPv4 + UDP headers + payload."""
        return (
            ETHERNET_HEADER_BYTES
            + IP_HEADER_BYTES
            + UDP_HEADER_BYTES
            + self.payload_bytes
        )

    def parse_depth_bytes(self) -> int:
        """Total parseable bytes (the opaque payload is never parsed)."""
        return ETHERNET_HEADER_BYTES + IP_HEADER_BYTES + UDP_HEADER_BYTES


@dataclass
class TcpSegment:
    """A TCP segment belonging to a host-to-host byte stream."""

    src: str
    dst: str
    sport: int = 0
    dport: int = 0
    seq: int = 0
    payload: Any = None
    payload_bytes: int = 0
    #: Marks the last segment of an application-level message, so receivers
    #: can reassemble without modelling full TCP state machines.
    fin: bool = False
    #: ECN congestion-experienced bit, set in flight by a congested switch
    #: egress queue (rides in the IP header: no wire-size change).
    ecn: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise TransportError("payload_bytes must be non-negative")
        if self.seq < 0:
            raise TransportError("seq must be non-negative")

    def wire_bytes(self) -> int:
        """Full frame size: Ethernet + IPv4 + TCP headers + payload."""
        return (
            ETHERNET_HEADER_BYTES
            + IP_HEADER_BYTES
            + TCP_HEADER_BYTES
            + self.payload_bytes
        )

    def parse_depth_bytes(self) -> int:
        """Total parseable bytes (the opaque payload is never parsed)."""
        return ETHERNET_HEADER_BYTES + IP_HEADER_BYTES + TCP_HEADER_BYTES


@dataclass
class MessagePayload:
    """Standard application payload wrapper used by the shuffle transports.

    Attributes
    ----------
    kind:
        Application-defined message kind (e.g. ``"map_output"`` or ``"end"``).
    data:
        The structured application data (e.g. a list of key-value pairs).
    meta:
        Extra fields such as the sending task id or the reducer partition.
    """

    kind: str
    data: Any = None
    meta: dict[str, Any] = field(default_factory=dict)

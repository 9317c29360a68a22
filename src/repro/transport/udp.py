"""UDP message transport.

DAIET ships intermediate data in UDP packets (Section 4: "these partitions are
sent to the reducer using UDP packets containing a small preamble and a
sequence of key-value pairs"). This module provides a generic UDP transport for
baselines and control traffic; the DAIET-specific packet layout lives in
:mod:`repro.core.packet` and rides inside the same datagram framing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.errors import TransportError
from repro.core.packet import SeenWindow
from repro.netsim.events import Timer
from repro.netsim.simulator import NetworkSimulator
from repro.transport.packets import MessagePayload, UdpDatagram
from repro.transport.window import TransportTuning, WindowedSender, sender_on

#: A conventional MTU-limited UDP payload (1500 B MTU minus IP and UDP headers).
DEFAULT_UDP_PAYLOAD_LIMIT = 1472


@dataclass
class UdpStats:
    """Sender-side accounting for UDP transfers."""

    datagrams_sent: int = 0
    payload_bytes_sent: int = 0
    wire_bytes_sent: int = 0


class UdpTransport:
    """Datagram-oriented convenience layer over the simulated network."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        payload_limit: int = DEFAULT_UDP_PAYLOAD_LIMIT,
    ) -> None:
        if payload_limit <= 0:
            raise TransportError("payload_limit must be positive")
        self.simulator = simulator
        self.payload_limit = payload_limit
        self.stats = UdpStats()
        self._listeners: dict[tuple[str, int], Callable[[str, MessagePayload], None]] = {}

    def listen(self, host: str, port: int, callback: Callable[[str, MessagePayload], None]) -> None:
        """Register ``callback(src, payload)`` for datagrams to ``host:port``."""
        self._listeners[(host, port)] = callback
        self.simulator.host(host).set_receiver(self._make_receiver(host))

    def _make_receiver(self, host: str) -> Callable[[Any], None]:
        def receive(packet: Any) -> None:
            if not isinstance(packet, UdpDatagram):
                return
            listener = self._listeners.get((host, packet.dport))
            if listener is None:
                return
            payload = packet.payload
            if not isinstance(payload, MessagePayload):
                payload = MessagePayload(kind="raw", data=payload)
            listener(packet.src, payload)

        return receive

    def send_datagram(
        self,
        src: str,
        dst: str,
        payload: MessagePayload | None,
        payload_bytes: int,
        sport: int = 0,
        dport: int = 0,
    ) -> UdpDatagram:
        """Send a single datagram (caller guarantees it fits the payload limit)."""
        if payload_bytes > self.payload_limit:
            raise TransportError(
                f"datagram payload of {payload_bytes} B exceeds the "
                f"{self.payload_limit} B limit; split the message first"
            )
        datagram = UdpDatagram(
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            payload=payload,
            payload_bytes=payload_bytes,
        )
        self.simulator.send(src, datagram)
        self.stats.datagrams_sent += 1
        self.stats.payload_bytes_sent += payload_bytes
        self.stats.wire_bytes_sent += datagram.wire_bytes()
        return datagram


# ---------------------------------------------------------------------- #
# Reliable datagram layer
# ---------------------------------------------------------------------- #
#: Per-datagram overhead of the reliability framing (32-bit sequence number).
RELIABLE_UDP_SEQ_BYTES = 4

#: Payload size of a reliability ACK datagram (cumulative + SACK summary).
RELIABLE_UDP_ACK_BYTES = 16

#: Message kinds used by the reliable framing.
_REL_DATA = "udp-rel-data"
_REL_ACK = "udp-rel-ack"


@dataclass
class ReliableUdpStats(UdpStats):
    """Extends the sender accounting with the reliability layer's counters."""

    retransmissions: int = 0
    timeouts: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    duplicates_received: int = 0


@dataclass
class _UdpFlow:
    """Sender-side state of one reliable (src, dst, port) flow.

    Sequencing and addressing live here; buffering, ACK processing,
    timeout retransmission, RTT estimation and congestion pacing live in
    the flow's :class:`~repro.transport.window.WindowedSender` engine —
    the same one driving the DAIET reliability channels.
    """

    src: str
    dst: str
    port: int
    next_seq: int = 0
    engine: WindowedSender | None = None


class ReliableUdpTransport(UdpTransport):
    """Cumulative-ACK + timeout-retransmission layer over UDP datagrams.

    The same end-host mechanism the DAIET reliability subsystem uses for
    aggregation traffic, applied to plain datagrams: senders number each
    datagram per (src, dst, port) flow and retransmit on timeout; receivers
    deduplicate with a :class:`~repro.core.packet.SeenWindow` and acknowledge
    every ``ack_window``-th datagram (plus immediately on duplicates and on
    the arrival that opens a hole or closes one).
    Both endpoints must use this transport; ACKs travel on the same port.

    ``tuning`` selects the adaptive-transport features of the shared
    :class:`~repro.transport.window.WindowedSender` engine (SRTT/RTTVAR
    retransmission timeouts, an AIMD congestion window); the default
    tuning is a fixed RTO and an unlimited window. A fixed-mode
    ``rto_floor`` raises the *effective* base timeout for the whole
    transport — retransmission timers and delayed-ACK pacing alike — which
    is how the baseline comparison's historical 2 ms incast guard is
    expressed.
    """

    def __init__(
        self,
        simulator: NetworkSimulator,
        payload_limit: int = DEFAULT_UDP_PAYLOAD_LIMIT,
        retransmit_timeout: float = 1e-4,
        ack_window: int = 8,
        max_retransmits: int = 30,
        tuning: TransportTuning | None = None,
    ) -> None:
        super().__init__(simulator, payload_limit)
        if retransmit_timeout <= 0:
            raise TransportError("retransmit_timeout must be positive")
        if ack_window <= 0:
            raise TransportError("ack_window must be positive")
        self.tuning = tuning if tuning is not None else TransportTuning()
        self.retransmit_timeout = self.tuning.base_timeout(retransmit_timeout)
        self.ack_window = ack_window
        self.max_retransmits = max_retransmits
        self.stats = ReliableUdpStats()
        self._flows: dict[tuple[str, str, int], _UdpFlow] = {}
        #: One stream window per (host, peer, port), made on first use.
        self._windows: defaultdict[tuple[str, str, int], SeenWindow] = defaultdict(
            SeenWindow
        )
        self._delayed_acks: dict[tuple[str, str, int], Timer] = {}
        self._apps: dict[tuple[str, int], Callable[[str, MessagePayload], None]] = {}
        #: CE bit of the datagram currently being dispatched (the listener
        #: callback only sees ``(src, payload)``, so the receiver stashes the
        #: packet-level mark here; delivery is synchronous and single-file).
        self._rx_ecn = False

    # ------------------------------------------------------------------ #
    # Receiver side
    # ------------------------------------------------------------------ #
    def listen_reliable(
        self, host: str, port: int, callback: Callable[[str, MessagePayload], None]
    ) -> None:
        """Register an application callback behind the reliability framing."""
        self._apps[(host, port)] = callback
        self._ensure_dispatcher(host, port)

    def _ensure_dispatcher(self, host: str, port: int) -> None:
        if (host, port) not in self._listeners:
            self.listen(host, port, self._make_dispatcher(host, port))

    def _make_receiver(self, host: str) -> Callable[[Any], None]:
        # Stash the datagram's CE bit before the base receiver strips the
        # framing down to (src, payload): _handle_data reads it synchronously
        # while this very packet is being dispatched.
        inner = super()._make_receiver(host)

        def receive(packet: Any) -> None:
            self._rx_ecn = getattr(packet, "ecn", False)
            inner(packet)

        return receive

    def _make_dispatcher(self, host: str, port: int):
        def dispatch(src: str, payload: MessagePayload) -> None:
            if payload.kind == _REL_ACK:
                self._handle_ack(self._flows.get((host, src, port)), payload)
            elif payload.kind == _REL_DATA:
                self._handle_data(host, port, src, payload)
            else:
                app = self._apps.get((host, port))
                if app is not None:
                    app(src, payload)

        return dispatch

    def _handle_data(self, host: str, port: int, src: str, payload: MessagePayload) -> None:
        seq = payload.meta["seq"]
        key = (host, src, port)
        window = self._windows[key]
        fresh = window.observe(seq)
        if not fresh:
            self.stats.duplicates_received += 1
        else:
            app = self._apps.get((host, port))
            if app is not None:
                inner = payload.data
                if not isinstance(inner, MessagePayload):
                    inner = MessagePayload(kind="raw", data=inner)
                app(src, inner)
        # Every arrival counts towards the cadence, duplicates included. A
        # CE-marked arrival is acknowledged immediately, not after the
        # delayed-ACK window fills; so is one that opens or closes a hole.
        due = window.count_arrival() >= self.ack_window
        if due or not fresh or self._rx_ecn or window.edge:
            self._send_ack(host, src, port, window)
        else:
            # Delayed ACK for the stream tail: datagrams short of a full
            # ack_window would otherwise only be recovered by the sender's
            # (much longer) retransmission timeout.
            if key not in self._delayed_acks:
                self._delayed_acks[key] = Timer(
                    self.simulator.scheduler,
                    lambda: self._flush_delayed_ack(host, src, port),
                )
            if not self._delayed_acks[key].active:
                self._delayed_acks[key].start(self.retransmit_timeout / 2)

    def _flush_delayed_ack(self, host: str, peer: str, port: int) -> None:
        window = self._windows[(host, peer, port)]
        if window.since_ack > 0:
            self._send_ack(host, peer, port, window)

    def _send_ack(self, host: str, peer: str, port: int, window: SeenWindow) -> None:
        cumulative, sack = window.take_ack()
        timer = self._delayed_acks.get((host, peer, port))
        if timer is not None:
            timer.cancel()
        ack = MessagePayload(
            kind=_REL_ACK,
            meta={"cumulative": cumulative, "sack": sack},
        )
        self.send_datagram(
            host, peer, ack, RELIABLE_UDP_ACK_BYTES, sport=port, dport=port
        )
        self.stats.acks_sent += 1

    # ------------------------------------------------------------------ #
    # Sender side
    # ------------------------------------------------------------------ #
    def send_reliable(
        self,
        src: str,
        dst: str,
        payload: MessagePayload | None,
        payload_bytes: int,
        port: int = 0,
    ) -> UdpDatagram:
        """Send one datagram with retransmission until acknowledged.

        With a congestion controller in the tuning, datagrams beyond the
        flow's window queue inside the engine and follow as earlier ones
        are acknowledged; without one every datagram hits the wire
        immediately (the historical behaviour).
        """
        self._ensure_dispatcher(src, port)
        key = (src, dst, port)
        flow = self._flows.get(key)
        if flow is None:
            flow = _UdpFlow(src=src, dst=dst, port=port)
            flow.engine = self._make_engine(flow)
            self._flows[key] = flow
        seq = flow.next_seq
        flow.next_seq += 1
        wrapped = MessagePayload(kind=_REL_DATA, data=payload, meta={"seq": seq})
        framed_bytes = payload_bytes + RELIABLE_UDP_SEQ_BYTES
        if framed_bytes > self.payload_limit:
            raise TransportError(
                f"datagram payload of {framed_bytes} B exceeds the "
                f"{self.payload_limit} B limit; split the message first"
            )
        datagram = UdpDatagram(
            src=src,
            dst=dst,
            sport=port,
            dport=port,
            payload=wrapped,
            payload_bytes=framed_bytes,
        )
        flow.engine.send(((seq, datagram),))
        return datagram

    def _make_engine(self, flow: _UdpFlow) -> WindowedSender:
        def give_up(_outstanding: int) -> None:
            raise TransportError(
                f"reliable UDP flow {flow.src!r}->{flow.dst!r} gave up after "
                f"{self.max_retransmits} consecutive timeouts"
            )

        def count_timeout() -> None:
            self.stats.timeouts += 1

        return sender_on(
            self.simulator,
            self.tuning,
            retransmit_timeout=self.retransmit_timeout,
            max_retransmits=self.max_retransmits,
            transmit=lambda datagrams, retransmit: self._flow_transmit(
                flow, datagrams, retransmit
            ),
            give_up=give_up,
            on_timeout_stat=count_timeout,
        )

    def _flow_transmit(
        self, flow: _UdpFlow, datagrams: list[UdpDatagram], retransmit: bool
    ) -> None:
        """Engine callback: account one batch and put it on the wire."""
        stats = self.stats
        if retransmit:
            self.simulator.send_burst(flow.src, datagrams)
            stats.retransmissions += len(datagrams)
            stats.wire_bytes_sent += sum(d.wire_bytes() for d in datagrams)
        else:
            send = self.simulator.send
            for datagram in datagrams:
                send(flow.src, datagram)
                stats.datagrams_sent += 1
                stats.payload_bytes_sent += datagram.payload_bytes
                stats.wire_bytes_sent += datagram.wire_bytes()

    def flow_done(self, src: str, dst: str, port: int = 0) -> bool:
        """True when the flow has no unacknowledged or window-queued datagrams."""
        flow = self._flows.get((src, dst, port))
        return flow is None or flow.engine.done

    def _handle_ack(self, flow: _UdpFlow | None, payload: MessagePayload) -> None:
        if flow is None:
            return
        self.stats.acks_received += 1
        flow.engine.on_ack(payload.meta["cumulative"], set(payload.meta.get("sack", ())))

"""Network devices: hosts and switches.

Devices are passive objects driven by the :class:`~repro.netsim.simulator.
NetworkSimulator`: the simulator hands a packet to a device's ``deliver`` and
transmits whatever a switch returns. Hosts count what their NIC sends and
receives and deliver packets to a registered application receiver; switch
devices wrap a :class:`~repro.dataplane.switch.ProgrammableSwitch`, whose
counters say what crossed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.checks.registry import fastpath
from repro.core.errors import PipelineError, TopologyError
from repro.core.packet import DaietAck, DaietPacket, DaietPacketType, PacketWindow
from repro.dataplane.actions import (
    CallableAction,
    EcmpAction,
    ForwardAction,
    NoAction,
    PacketContext,
)
from repro.dataplane.switch import ProgrammableSwitch, _packet_bytes as _switch_packet_bytes
from repro.dataplane.tables import MatchActionTable

#: Signature of an application-level packet receiver installed on a host.
PacketReceiver = Callable[[Any], None]

#: Name of the destination-based forwarding table installed on every switch.
FORWARDING_TABLE = "l3_forward"

#: Name of the DAIET steering table installed on every switch (matched on tree id).
DAIET_TABLE = "daiet_steer"

#: Hoisted enum member for the fast-path DATA/END dispatch.
_DAIET_DATA = DaietPacketType.DATA

#: Steering sentinel: the tree id has *no* entry in ``daiet_steer``, so the
#: packet is plain traffic for the compiled forwarding path (distinct from
#: ``None``, which means "entry present but not the standard aggregate
#: action" and forces the generic pipeline).
_NO_STEERING_ENTRY = object()

#: What the compiled paths compare against: the transport packet classes the
#: forwarding path takes, and the function the standard aggregate action is
#: bound to. Resolved lazily (see :func:`_compiled_path_names`) because
#: importing :mod:`repro.transport` or :mod:`repro.core.aggregation` at module
#: scope would close an import cycle while :mod:`repro.netsim` is still
#: initializing.
_COMPILED_PATH_NAMES: tuple[Any, ...] = ()


def _compiled_path_names() -> tuple[Any, ...]:
    """``(UdpDatagram, TcpSegment, DaietAggregationEngine.pipeline_action)``."""
    global _COMPILED_PATH_NAMES
    if not _COMPILED_PATH_NAMES:
        from repro.core.aggregation import DaietAggregationEngine
        from repro.transport.packets import TcpSegment, UdpDatagram

        _COMPILED_PATH_NAMES = (
            UdpDatagram,
            TcpSegment,
            DaietAggregationEngine.pipeline_action,
        )
    return _COMPILED_PATH_NAMES


@dataclass(slots=True)
class HostCounters:
    """Traffic counters observed at a host NIC."""

    packets_received: int = 0
    bytes_received: int = 0
    packets_sent: int = 0
    bytes_sent: int = 0


class Device:
    """Base class of every addressable node in the topology."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class Host(Device):
    """An end host with a single NIC port and an application receiver."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.counters = HostCounters()
        self._receiver: PacketReceiver | None = None
        self.received_packets: list[Any] = []
        #: When True, every received packet is also appended to
        #: ``received_packets`` (useful in tests; disabled for large runs).
        self.record_packets = False

    def set_receiver(self, receiver: PacketReceiver) -> None:
        """Install the application callback invoked for every delivered packet."""
        self._receiver = receiver

    def deliver(self, packet: Any, nbytes: int) -> None:
        """Deliver one packet whose wire size was already computed.

        The simulator's fast path: the packet's serialized size is computed
        once on injection and threaded through every hop, so delivery does
        not re-derive it.
        """
        counters = self.counters
        counters.packets_received += 1
        counters.bytes_received += nbytes
        if self.record_packets:
            self.received_packets.append(packet)
        if self._receiver is not None:
            self._receiver(packet)

    def note_sent(self, packet: Any, nbytes: int | None = None) -> None:
        """Account a packet handed to the simulator for transmission."""
        self.counters.packets_sent += 1
        self.counters.bytes_sent += (
            nbytes if nbytes is not None else packet_wire_bytes(packet)
        )


class SwitchDevice(Device):
    """Topology wrapper around a :class:`ProgrammableSwitch`.

    The wrapper owns the standard two-table pipeline used throughout the
    reproduction:

    * ``daiet_steer`` — exact match on ``tree_id``; the DAIET controller
      installs rules here that hand matching packets to the per-switch
      aggregation extern.
    * ``l3_forward`` — exact match on ``dst``; the routing module installs one
      entry per directly attached host and one per remote rack (attachment
      switch), a plain forward or an ECMP group. A lookup that misses
      ``dst`` probes the rack prefix the fabric's address plan gives it.

    The pipeline is sealed when it is built, as a compiled P4 program is:
    from then on only table entries change. So :meth:`deliver` runs
    *compiled* paths that perform exactly the counter updates, parse charges
    and emissions the generic pipeline would, without building the
    per-packet context/metadata machinery. Per packet they look up one
    table (forwarding probes ``dst``, then its rack prefix) and check that
    the entry's action is a standard one. An entry with
    another action, a broadcast port, an oversized op charge or a default
    action other than ``NoAction`` on a table that missed goes to the generic
    :meth:`ProgrammableSwitch.receive`.
    """

    def __init__(self, name: str, num_ports: int = 64) -> None:
        super().__init__(name)
        self.switch = ProgrammableSwitch(name=name, num_ports=num_ports)
        self._udp_type, self._tcp_type, self._aggregate_fn = _compiled_path_names()
        self._build_standard_pipeline()

    def _build_standard_pipeline(self) -> None:
        pipeline = self.switch.pipeline
        metadata_stage = pipeline.add_stage("extract_metadata")
        metadata_stage.add_extern(_extract_packet_metadata)

        daiet_stage = pipeline.add_stage("daiet")
        daiet_table = MatchActionTable(DAIET_TABLE, match_fields=("tree_id",), match_kind="exact")
        daiet_stage.add_table(daiet_table)

        forward_stage = pipeline.add_stage("forward")
        forward_table = MatchActionTable(FORWARDING_TABLE, match_fields=("dst",), match_kind="exact")
        forward_table.register_action("forward", ForwardAction)
        forward_table.register_action("ecmp", EcmpAction)
        forward_stage.add_table(forward_table)
        pipeline.seal()

        self._daiet_tbl = daiet_table
        self._fwd_tbl = forward_table
        # Bound hot references (none of these objects is ever replaced on a
        # ProgrammableSwitch instance).
        self._sw_counters = self.switch.counters
        self._sw_parser = self.switch.parser
        self._sw_pipeline = pipeline
        self._max_ops = self.switch.resources.max_ops_per_packet
        self._max_parse = self.switch.resources.max_parse_bytes

    @property
    def daiet_table(self) -> MatchActionTable:
        """The DAIET steering table."""
        return self._daiet_tbl

    @property
    def forwarding_table(self) -> MatchActionTable:
        """The destination-based forwarding table."""
        return self._fwd_tbl

    # ------------------------------------------------------------------ #
    # Compiled fast path
    # ------------------------------------------------------------------ #
    def _resolve_steering(self, tree_id: int) -> Any:
        """What ``daiet_steer`` does with one tree, for the compiled paths.

        Returns the aggregation engine the tree's entry dispatches to,
        :data:`_NO_STEERING_ENTRY` when the table has no entry for it, or
        ``None`` when the entry is not the standard aggregate action and the
        packet must take the generic pipeline.
        """
        entry = self._daiet_tbl._exact_index.get((("tree_id", tree_id),))
        if entry is None:
            return _NO_STEERING_ENTRY
        action = entry.action
        if type(action) is CallableAction and action.cost == 1:
            func = action.func
            if getattr(func, "__func__", None) is self._aggregate_fn:
                return func.__self__
        return None

    def _batch_tree_state(self, tree_id: int) -> tuple[Any, Any] | None:
        """Resolve ``(engine, state)`` for the vectorized burst delivery path.

        Shares :meth:`deliver`'s steering resolution, then additionally
        requires the tree state to exist and be vectorizable
        (``TreeState._vec``). Any miss returns ``None`` and the caller
        delivers per packet, which reproduces the generic behaviour exactly.
        """
        engine = self._resolve_steering(tree_id)
        if engine is None or engine is _NO_STEERING_ENTRY:
            return None
        state = engine._trees.get(tree_id)
        if state is None or not state._vec:
            return None
        return engine, state

    @fastpath("switch-delivery", oracle="tests/netsim/test_steered_delivery.py")
    def deliver(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Process one packet whose wire size is already known.

        DAIET packets and ACKs matching an installed steering rule take the
        compiled aggregation fast path; DAIET traffic *without* a steering
        entry (the UDP baseline) and plain transport packets (TCP segments,
        UDP datagrams — baseline shuffles and host-level ACK/retransmit
        traffic) take the compiled forwarding path. Everything else is
        handled by the generic pipeline. All paths produce identical
        emissions and identical counter/parse-budget effects, except that
        the aggregation path returns a flush as one window, not its packets.
        """
        switch = self.switch
        packet_type = type(packet)
        if packet_type is DaietPacket or packet_type is DaietAck:
            tree_id = packet.tree_id
            engine = self._resolve_steering(tree_id)
            if engine is _NO_STEERING_ENTRY:
                # No aggregation rule for this tree (baseline traffic, or
                # ACKs crossing a switch outside their tree): forward by dst.
                return self._fast_forward(packet, ingress_port, nbytes)
            if engine is not None:
                # Total op charge the generic path would make: extract
                # extern (1) + table (1) + action cost (1) + the extern's
                # own per-pair charge.
                if packet_type is DaietPacket:
                    npairs = len(packet.pairs)
                    charge = 3 + (npairs if npairs > 1 else 1)
                else:
                    charge = 4
                if charge <= self._max_ops:
                    if not 0 <= ingress_port < switch.num_ports:
                        raise PipelineError(
                            f"ingress port {ingress_port} out of range for "
                            f"switch {switch.name!r}"
                        )
                    counters = self._sw_counters
                    counters.packets_in += 1
                    counters.bytes_in += nbytes
                    # parser.charge, inlined for the in-budget case.
                    parsed = packet.parse_depth_bytes()
                    if parsed <= self._max_parse:
                        parser = self._sw_parser
                        parser.packets_parsed += 1
                        parser.bytes_parsed += parsed
                    else:
                        self._sw_parser.charge(packet)  # raises the exact error
                    self._sw_pipeline.packets_processed += 1
                    self._daiet_tbl.hit_count += 1
                    # DaietAggregationEngine.handle_packet, inlined.
                    state = engine._trees.get(tree_id)
                    if state is None:
                        out = (
                            engine.handle_packet(packet)
                            if packet_type is DaietPacket
                            else engine.handle_ack(packet)
                        )
                    elif packet_type is DaietPacket:
                        state.counters.packets_received += 1
                        if packet.packet_type is _DAIET_DATA:
                            out = engine._process_data(state, packet)
                        else:
                            out = engine._process_end(state, packet)
                    else:
                        out = engine.handle_ack(packet)
                    if out:
                        self._count_emitted(out)
                    return out
        elif packet_type is self._udp_type or packet_type is self._tcp_type:
            return self._fast_forward(packet, ingress_port, nbytes)
        return switch.receive(packet, ingress_port, nbytes)

    def _count_emitted(self, out: list[tuple[int, Any]]) -> None:
        """Count what the aggregation extern emitted: a window, each of its packets."""
        counters = self._sw_counters
        for _port, out_packet in out:
            if type(out_packet) is PacketWindow:
                sizes = out_packet.sizes
                count, nbytes = len(sizes), sum(sizes)
            else:
                count, nbytes = 1, _switch_packet_bytes(out_packet, counters)
            counters.packets_generated += count
            counters.packets_out += count
            counters.bytes_out += nbytes

    # ------------------------------------------------------------------ #
    # Compiled forwarding path
    # ------------------------------------------------------------------ #
    @fastpath("switch-forwarding", oracle="tests/netsim/test_forwarding_fastpath.py")
    def _fast_forward(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Compiled L3 forwarding for packets that miss the steering table.

        Replicates exactly the observable effects of the generic pipeline on
        plain forwarded traffic — switch counters, parser charges,
        ``packets_processed``, the steering table's miss count, the
        forwarding table's hit/miss count, and the drop accounting on a
        forwarding miss — without building the per-packet context. The
        lookup is the table's: ``dst`` exactly, then the rack prefix the
        address plan names. The generic pipeline takes the packet when the
        ``l3_forward`` entry is neither a plain :class:`ForwardAction` to
        one port nor an :class:`EcmpAction`, when the charge exceeds the op
        budget, or when a table that missed has a default action other than
        the free ``NoAction``: the generic pipeline runs the default action
        on every miss, and this path does not.
        """
        switch = self.switch
        # Every packet here misses daiet_steer.
        if type(self._daiet_tbl.default_action) is not NoAction:
            return switch.receive(packet, ingress_port, nbytes)
        fwd = self._fwd_tbl
        dst = packet.dst
        try:
            entry = fwd._exact_index.get((("dst", dst),))
            if entry is None and fwd.address_plan is not None:
                entry = fwd._aggregate_entry(dst)
        except TypeError:  # unhashable destination: a miss, as in table.apply
            entry = None
        if entry is None:
            if type(fwd.default_action) is not NoAction:
                return switch.receive(packet, ingress_port, nbytes)
            egress = None
        else:
            action = entry.action
            if type(action) is ForwardAction:
                egress = action.egress_port
            elif type(action) is EcmpAction:
                egress = action.select(dst)
            else:
                return switch.receive(packet, ingress_port, nbytes)
            if action.cost != 1 or egress < 0:
                return switch.receive(packet, ingress_port, nbytes)
        # Charge the generic path would make: extract extern (1) +
        # daiet_steer miss (1) + l3_forward (1) + the forward or ECMP action
        # (1 on a hit, nothing on a miss — the default action is a free
        # NoAction).
        charge = 3 if egress is None else 4
        if charge > self._max_ops:
            return switch.receive(packet, ingress_port, nbytes)
        if not 0 <= ingress_port < switch.num_ports:
            raise PipelineError(
                f"ingress port {ingress_port} out of range for switch {switch.name!r}"
            )
        counters = self._sw_counters
        counters.packets_in += 1
        counters.bytes_in += nbytes
        parsed = packet.parse_depth_bytes()
        if parsed <= self._max_parse:
            parser = self._sw_parser
            parser.packets_parsed += 1
            parser.bytes_parsed += parsed
        else:
            self._sw_parser.charge(packet)  # raises the exact error
        self._sw_pipeline.packets_processed += 1
        self._daiet_tbl.miss_count += 1
        if egress is None:
            fwd.miss_count += 1
            counters.packets_dropped += 1
            return []
        fwd.hit_count += 1
        counters.packets_out += 1
        counters.bytes_out += nbytes
        return [(egress, packet)]


def packet_wire_bytes(packet: Any) -> int:
    """Serialized size of a packet object, as carried on the wire."""
    size_fn = getattr(packet, "wire_bytes", None)
    if callable(size_fn):
        return int(size_fn())
    length = getattr(packet, "length", None)
    if isinstance(length, int):
        return length
    raise TopologyError(
        f"packet of type {type(packet).__name__} does not expose wire_bytes()/length"
    )


def _extract_packet_metadata(ctx: PacketContext) -> None:
    """Copy addressing fields from the packet into pipeline metadata.

    This plays the role of the P4 parser writing extracted header fields into
    the metadata struct consumed by the match-action tables. DAIET packets —
    the dominant traffic — take a direct-attribute path; anything else goes
    through the generic ``getattr`` probes.
    """
    packet = ctx.packet
    metadata = ctx.metadata
    if type(packet) is DaietPacket:
        metadata["dst"] = packet.dst
        metadata["src"] = packet.src
        metadata["tree_id"] = packet.tree_id
        metadata["packet_type"] = packet.packet_type
        return
    metadata["dst"] = getattr(packet, "dst", None)
    metadata["src"] = getattr(packet, "src", None)
    metadata["tree_id"] = getattr(packet, "tree_id", None)
    metadata["packet_type"] = getattr(packet, "packet_type", None)

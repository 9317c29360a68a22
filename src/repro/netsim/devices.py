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
from repro.dataplane.switch import (
    DAIET_TABLE,
    FORWARDING_TABLE,
    ProgrammableSwitch,
    over_op_budget,
)
from repro.dataplane.tables import MatchActionTable

#: Signature of an application-level packet receiver installed on a host.
PacketReceiver = Callable[[Any], None]

#: Hoisted enum member for the fast-path DATA/END dispatch.
_DAIET_DATA = DaietPacketType.DATA


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


class Host(Device):
    """An end host with a single NIC port and an application receiver."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.counters = HostCounters()
        self._receiver: PacketReceiver | None = None

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

    The switch runs the one DAIET program (see
    :mod:`repro.dataplane.switch`): ``daiet_steer`` on ``tree_id``, whose
    ``aggregate`` entries the controller binds to the switch's aggregation
    engine, then ``l3_forward`` on ``dst`` (or its rack prefix), whose
    entries the routing module installs. The device owns steering:
    :meth:`deliver` hands a DAIET packet or ACK with a steering entry to the
    engine, and every other packet to the switch's forwarding stage,
    :meth:`ProgrammableSwitch.receive`. The switch owns its tables, budgets,
    counters and forwarding.
    """

    def __init__(self, name: str, num_ports: int = 64) -> None:
        super().__init__(name)
        switch = self.switch = ProgrammableSwitch(name=name, num_ports=num_ports)
        # Bound hot references (none of these objects is ever replaced on a
        # ProgrammableSwitch instance).
        self._daiet_tbl = switch.tables[DAIET_TABLE]
        self._fwd_tbl = switch.tables[FORWARDING_TABLE]
        self._sw_counters = switch.counters
        self._sw_parser = switch.parser
        self._max_ops = switch.resources.max_ops_per_packet
        self._max_parse = switch.resources.max_parse_bytes

    @property
    def daiet_table(self) -> MatchActionTable:
        """The DAIET steering table."""
        return self._daiet_tbl

    @property
    def forwarding_table(self) -> MatchActionTable:
        """The destination-based forwarding table."""
        return self._fwd_tbl

    # ------------------------------------------------------------------ #
    # Steering
    # ------------------------------------------------------------------ #
    def _resolve_steering(self, tree_id: int) -> Any:
        """The engine ``daiet_steer``'s entry for one tree binds, or ``None``
        when the table has no entry for it."""
        entry = self._daiet_tbl._exact_index.get((("tree_id", tree_id),))
        return None if entry is None else entry.action

    def _batch_tree_state(self, tree_id: int) -> tuple[Any, Any] | None:
        """Resolve ``(engine, state)`` for the vectorized burst delivery path.

        Shares :meth:`deliver`'s steering resolution, then additionally
        requires the tree state to exist and be vectorizable
        (``TreeState._vec``). Any miss returns ``None`` and the caller
        delivers per packet.
        """
        engine = self._resolve_steering(tree_id)
        if engine is None:
            return None
        state = engine._trees.get(tree_id)
        if state is None or not state._vec:
            return None
        return engine, state

    @fastpath("switch-delivery", oracle="tests/netsim/test_steered_delivery.py")
    def deliver(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Process one packet whose wire size is already known.

        A DAIET packet or ACK whose tree has a steering entry goes to the
        aggregation engine, which returns a flush as one window, not its
        packets. Everything else — DAIET traffic with no steering entry (the
        UDP baseline, ACKs crossing a switch outside their tree) and
        transport packets — goes to the switch's forwarding stage.

        Raises :class:`~repro.core.errors.ResourceExhaustedError` for a
        steered packet over the parse or op budget (a DATA packet costs
        ``3 + max(1, npairs)`` operations, an ACK 4), and whatever the
        forwarding stage raises for the rest.
        """
        packet_type = type(packet)
        if packet_type is DaietPacket or packet_type is DaietAck:
            tree_id = packet.tree_id
            engine = self._resolve_steering(tree_id)
            if engine is not None:
                switch = self.switch
                if not 0 <= ingress_port < switch.num_ports:
                    raise PipelineError(
                        f"ingress port {ingress_port} out of range for switch {switch.name!r}"
                    )
                counters = self._sw_counters
                counters.packets_in += 1
                counters.bytes_in += nbytes
                # parser.charge, inlined for the in-budget case.
                parsed = packet.parse_depth_bytes()
                if parsed <= self._max_parse:
                    self._sw_parser.bytes_parsed += parsed
                else:
                    self._sw_parser.charge(packet)  # raises the parse-depth error
                if packet_type is DaietPacket:
                    npairs = len(packet.pairs)
                    ops = 3 + (npairs if npairs > 1 else 1)
                else:
                    ops = 4
                if ops > self._max_ops:
                    raise over_op_budget(ops, self._max_ops)
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
        return self.switch.receive(packet, ingress_port, nbytes)

    def _count_emitted(self, out: list[tuple[int, Any]]) -> None:
        """Count what the aggregation extern emitted: a window, each of its packets."""
        counters = self._sw_counters
        for _port, out_packet in out:
            if type(out_packet) is PacketWindow:
                sizes = out_packet.sizes
                count, nbytes = len(sizes), sum(sizes)
            else:
                count, nbytes = 1, out_packet.wire_bytes()
            counters.packets_generated += count
            counters.packets_out += count
            counters.bytes_out += nbytes


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

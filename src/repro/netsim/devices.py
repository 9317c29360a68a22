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
from repro.dataplane.switch import (
    DAIET_TABLE,
    FORWARDING_TABLE,
    ProgrammableSwitch,
    over_op_budget,
)
from repro.dataplane.tables import MatchActionTable

#: Signature of an application-level packet receiver installed on a host.
PacketReceiver = Callable[[Any], None]


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

    def _fits(self, nbytes: int, cost: int, ingress_port: int) -> bool:
        """Whether a packet parsed to ``nbytes`` that costs ``cost`` operations
        (for a window: its largest item's) fits this switch's budgets,
        arriving on ``ingress_port``."""
        return (
            nbytes <= self._max_parse
            and cost <= self._max_ops
            and 0 <= ingress_port < self.switch.num_ports
        )

    @fastpath("switch-delivery", oracle="tests/netsim/test_steered_delivery.py")
    def deliver(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Process one packet whose wire size is already known.

        A DAIET packet or ACK whose tree has a steering entry goes to the
        aggregation engine, which returns a flush as one window, not its
        packets. Everything else — DAIET traffic with no steering entry (the
        UDP baseline, ACKs crossing a switch outside their tree) and
        transport packets — goes to the switch's forwarding stage.

        Raises :class:`~repro.core.errors.ResourceExhaustedError` for a
        steered packet over the parse or op budget (``packet.op_cost()``),
        and whatever the forwarding stage raises for the rest.
        """
        tree_id = getattr(packet, "tree_id", None)
        if tree_id is not None:
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
                ops = packet.op_cost()
                if ops > self._max_ops:
                    raise over_op_budget(ops, self._max_ops)
                self._daiet_tbl.hit_count += 1
                out = engine.consume(packet)
                if out:
                    self.count_emitted(out)
                return out
        return self.switch.receive(packet, ingress_port, nbytes)

    def start_batch(self, plan: Any, offset: int, ingress_port: int) -> Any:
        """The engine's batch for item ``offset`` of a burst plan arriving on
        ``ingress_port`` (``DaietAggregationEngine.start_batch``), or ``None``
        when the plan is over budget or its tree not steered here: the item
        then takes :meth:`deliver`."""
        engine = self._resolve_steering(plan.window.tree_id)
        return (
            None
            if engine is None
            else engine.start_batch(plan, offset, ingress_port, self._fits)
        )

    @staticmethod
    def steers(packet: Any) -> bool:
        """Whether packets of ``packet``'s type reach the steering stage at
        all: they carry a tree id (a DAIET packet or ACK). Every other
        packet goes straight to the forwarding stage."""
        return hasattr(packet, "tree_id")

    def start_packet_batch(self, packet: Any, ingress_port: int) -> Any:
        """:meth:`start_batch` for a packet that arrives alone, one the
        switch :meth:`steers` (``DaietAggregationEngine.start_packet_batch``):
        ``None`` for a packet of no tree steered here, which then takes
        :meth:`deliver` like everything the engine does not batch."""
        engine = self._resolve_steering(getattr(packet, "tree_id", None))
        return (
            None
            if engine is None
            else engine.start_packet_batch(packet, ingress_port, self._fits)
        )

    def take_batch(self, batch: Any, merged: Any) -> tuple[list[int], dict[int, Any]]:
        """``WindowBatch.take``, counted as :meth:`deliver` counts a steered
        packet; the emissions are counted when they leave (:meth:`count_emitted`)."""
        counts, nbytes, emitted = batch.take(merged)
        taken = sum(counts)
        counters = self._sw_counters
        counters.packets_in += taken
        counters.bytes_in += nbytes
        self._sw_parser.bytes_parsed += nbytes
        self._daiet_tbl.hit_count += taken
        return counts, emitted

    def count_emitted(self, out: list[tuple[int, Any]]) -> None:
        """Count what the aggregation extern emitted: a window, each of its packets."""
        counters = self._sw_counters
        for _port, out_packet in out:
            try:
                count, nbytes = 1, out_packet.wire_bytes()
            except AttributeError:
                sizes = out_packet.sizes
                count, nbytes = len(sizes), sum(sizes)
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

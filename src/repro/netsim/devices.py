"""Network devices: hosts and switches.

Devices are passive objects driven by the :class:`~repro.netsim.simulator.
NetworkSimulator`: the simulator delivers a packet to a device's
:meth:`handle_packet` and transmits whatever the device returns. Hosts deliver
packets to a registered application receiver; switch devices wrap a
:class:`~repro.dataplane.switch.ProgrammableSwitch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.checks.registry import fastpath
from repro.core.errors import PipelineError, TopologyError
from repro.core.packet import DaietAck, DaietPacket, DaietPacketType
from repro.dataplane.actions import ForwardAction, NoAction, PacketContext
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

#: Steering-cache sentinel: the tree id has *no* entry in ``daiet_steer``, so
#: the packet is plain traffic for the compiled forwarding path (distinct
#: from ``None``, which means "entry present but not the standard aggregate
#: action" and forces the generic pipeline).
_NO_STEERING_ENTRY = object()

#: Forwarding-cache sentinel: this destination cannot take the compiled
#: forwarding path (non-standard action, broadcast port, unhashable key...).
_GENERIC_FORWARD = object()

#: Transport packet classes eligible for the compiled forwarding path.
#: Resolved lazily (see :func:`_forwarding_packet_types`) because importing
#: :mod:`repro.transport` at module scope would close an import cycle while
#: :mod:`repro.netsim` is still initializing.
_FORWARD_TYPES: tuple[type, ...] = ()


def _forwarding_packet_types() -> tuple[type, ...]:
    """The (lazily imported) transport packet types the fast path forwards."""
    global _FORWARD_TYPES
    if not _FORWARD_TYPES:
        from repro.transport.packets import TcpSegment, UdpDatagram

        _FORWARD_TYPES = (UdpDatagram, TcpSegment)
    return _FORWARD_TYPES


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

    def handle_packet(self, packet: Any, ingress_port: int) -> list[tuple[int, Any]]:
        """Consume a packet arriving on ``ingress_port``.

        Returns a list of ``(egress_port, packet)`` transmissions the device
        wants to make in response.
        """
        raise NotImplementedError

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

    def handle_packet(self, packet: Any, ingress_port: int) -> list[tuple[int, Any]]:
        self.deliver(packet, packet_wire_bytes(packet))
        return []

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
      entry per reachable host.

    Because this shape is fixed, :meth:`deliver` runs a *compiled* fast path
    for DAIET traffic: when the pipeline is verifiably still in its standard
    form, it performs exactly the counter updates, parse charges and
    emissions the generic pipeline would, without building the per-packet
    context/metadata machinery. Any deviation (extra stages or steps, a
    non-standard steering action, an oversized op charge) falls back to the
    generic :meth:`ProgrammableSwitch.receive`.
    """

    def __init__(self, name: str, num_ports: int = 64, switch: ProgrammableSwitch | None = None) -> None:
        super().__init__(name)
        self.switch = switch or ProgrammableSwitch(name=name, num_ports=num_ports)
        #: tree_id -> (table version, engine | _NO_STEERING_ENTRY | None);
        #: revalidated against the steering table's mutation counter, so rule
        #: changes invalidate the memo naturally.
        self._fast_cache: dict[int, tuple[int, Any]] = {}
        #: dst -> (daiet version, forward version, egress | None |
        #: _GENERIC_FORWARD): the compiled forwarding closure data for
        #: baseline/ACK traffic. ``None`` caches a forwarding miss (drop).
        #: Both table versions take part in validation because the fast path
        #: replicates *both* tables' hit/miss accounting.
        self._fwd_cache: dict[Any, tuple[int, int, Any]] = {}
        self._udp_type, self._tcp_type = _forwarding_packet_types()
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
        forward_stage.add_table(forward_table)

        self._daiet_tbl = daiet_table
        self._fwd_tbl = forward_table
        # Bound hot references (none of these objects is ever replaced on a
        # ProgrammableSwitch instance).
        self._sw_counters = self.switch.counters
        self._sw_parser = self.switch.parser
        self._sw_pipeline = self.switch.pipeline
        self._max_ops = self.switch.resources.max_ops_per_packet
        self._max_parse = self.switch.resources.max_parse_bytes

    @property
    def daiet_table(self) -> MatchActionTable:
        """The DAIET steering table."""
        return self.switch.pipeline.tables()[DAIET_TABLE]

    @property
    def forwarding_table(self) -> MatchActionTable:
        """The destination-based forwarding table."""
        return self.switch.pipeline.tables()[FORWARDING_TABLE]

    def handle_packet(self, packet: Any, ingress_port: int) -> list[tuple[int, Any]]:
        return self.switch.receive(packet, ingress_port)

    # ------------------------------------------------------------------ #
    # Compiled fast path
    # ------------------------------------------------------------------ #
    @staticmethod
    def _steering_engine(entry: Any) -> Any:
        """The aggregation engine a steering entry dispatches to, or ``None``.

        ``None`` means the entry is not the standard aggregate action and the
        packet must go through the generic pipeline.
        """
        from repro.core.aggregation import DaietAggregationEngine
        from repro.dataplane.actions import CallableAction

        action = entry.action
        if type(action) is CallableAction and action.cost == 1:
            func = action.func
            if getattr(func, "__func__", None) is DaietAggregationEngine.pipeline_action:
                return func.__self__
        return None

    def _pipeline_is_standard(self) -> bool:
        """Per-packet shape guard: the pipeline is still the standard three
        single-step stages (metadata extract -> daiet_steer -> l3_forward).

        Verified by identity on every packet because stage step lists can be
        mutated in place without bumping any counter.
        """
        stages = self._sw_pipeline._stages
        if len(stages) != 3:
            return False
        s0, s1, s2 = stages
        return (
            len(s0.steps) == 1
            and s0.steps[0] is _extract_packet_metadata
            and len(s1.steps) == 1
            and s1.steps[0] is self._daiet_tbl
            and len(s2.steps) == 1
            and s2.steps[0] is self._fwd_tbl
        )

    def _resolve_steering(self, tree_id: int) -> Any:
        """What ``daiet_steer`` does with one tree, for the compiled paths.

        Returns the aggregation engine the tree's entry dispatches to,
        :data:`_NO_STEERING_ENTRY` when the table has no entry for it, or
        ``None`` when the packet must take the generic pipeline (the shape
        guard failed, or the entry is not the standard aggregate action).
        The resolution is memoized against the table's mutation version:
        one dict probe + one int compare on the hot path.
        """
        if not self._pipeline_is_standard():
            return None
        table = self._daiet_tbl
        cached = self._fast_cache.get(tree_id)
        if cached is not None and cached[0] == table.version:
            return cached[1]
        if table._unindexed:
            engine = None  # unhashable steering entries: generic path
        else:
            entry = table._exact_index.get((("tree_id", tree_id),))
            if entry is None:
                engine = _NO_STEERING_ENTRY
            else:
                engine = self._steering_engine(entry)
        self._fast_cache[tree_id] = (table.version, engine)
        return engine

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

    @fastpath("switch-delivery", oracle="tests/netsim/test_devices_stats.py")
    def deliver(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Process one packet whose wire size is already known.

        DAIET packets and ACKs matching an installed steering rule take the
        compiled aggregation fast path; DAIET traffic *without* a steering
        entry (the UDP baseline) and plain transport packets (TCP segments,
        UDP datagrams — baseline shuffles and host-level ACK/retransmit
        traffic) take the compiled forwarding path. Everything else (and
        every non-standard pipeline configuration) is handled by the generic
        pipeline. All paths produce identical emissions and identical
        counter/parse-budget effects.
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
                        n_out = len(out)
                        counters.packets_generated += n_out
                        counters.packets_out += n_out
                        for _port, out_packet in out:
                            counters.bytes_out += _switch_packet_bytes(
                                out_packet, counters
                            )
                    return out
        elif packet_type is self._udp_type or packet_type is self._tcp_type:
            if self._pipeline_is_standard():
                return self._fast_forward(packet, ingress_port, nbytes)
        return switch.receive(packet, ingress_port, nbytes)

    # ------------------------------------------------------------------ #
    # Compiled forwarding path
    # ------------------------------------------------------------------ #
    def _resolve_forward(self, dst: Any) -> Any:
        """Resolve one destination against ``l3_forward`` for the fast path.

        Returns the egress port, ``None`` for a cacheable miss (drop), or
        :data:`_GENERIC_FORWARD` when the destination must take the generic
        pipeline (unhashable key, unindexed entries, a non-standard action,
        a broadcast port, or a non-trivial default action on either table —
        the generic pipeline runs the default action on every miss, and the
        fast path only replicates the standard free ``NoAction``).
        """
        table = self._fwd_tbl
        if (
            table._unindexed
            or type(table.default_action) is not NoAction
            or type(self._daiet_tbl.default_action) is not NoAction
        ):
            return _GENERIC_FORWARD
        try:
            entry = table._exact_index.get((("dst", dst),))
        except TypeError:  # unhashable destination
            return _GENERIC_FORWARD
        if entry is None:
            return None
        action = entry.action
        if type(action) is ForwardAction and action.cost == 1 and action.egress_port >= 0:
            return action.egress_port
        return _GENERIC_FORWARD

    @fastpath("forwarding-cache", oracle="tests/netsim/test_forwarding_fastpath.py")
    def _fast_forward(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Compiled L3 forwarding for packets that miss the steering table.

        Replicates exactly the observable effects of the generic pipeline on
        plain forwarded traffic — switch counters, parser charges,
        ``packets_processed``, the steering table's miss count, the
        forwarding table's hit/miss count, and the drop accounting on a
        forwarding miss — without building the per-packet context. Falls
        back to the generic pipeline whenever the memoized resolution says
        the destination is not plainly forwardable.
        """
        switch = self.switch
        dst = getattr(packet, "dst", None)
        try:
            cached = self._fwd_cache.get(dst)
        except TypeError:  # unhashable destination: generic pipeline
            return switch.receive(packet, ingress_port, nbytes)
        daiet_version = self._daiet_tbl.version
        fwd_version = self._fwd_tbl.version
        if (
            cached is not None
            and cached[0] == daiet_version
            and cached[1] == fwd_version
        ):
            egress = cached[2]
        else:
            egress = self._resolve_forward(dst)
            self._fwd_cache[dst] = (daiet_version, fwd_version, egress)
        if egress is _GENERIC_FORWARD:
            return switch.receive(packet, ingress_port, nbytes)
        # Charge the generic path would make: extract extern (1) +
        # daiet_steer miss (1) + l3_forward (1) + ForwardAction (1 on a hit,
        # nothing on a miss — the default action is a free NoAction).
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
        fwd = self._fwd_tbl
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

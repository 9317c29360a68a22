"""A reference model of the switch program, for the two switch oracles.

A DAIET switch runs one program: ``daiet_steer`` (``tree_id`` -> the switch's
aggregation engine), then ``l3_forward`` (``dst``, or its rack prefix -> a
port or an ECMP group). ``SwitchDevice.deliver`` and
``ProgrammableSwitch.receive`` compile it. This module states it once more,
plainly, from public pieces only: ``MatchActionTable.lookup`` (which applies
the address plan), ``EcmpAction.select``,
``DaietAggregationEngine.handle_packet`` / ``handle_ack`` and the op model:
``3 + max(1, npairs)`` operations for a steered DATA or END packet, 4 for a
steered ACK, 4 for a forwarded packet and 3 for one ``l3_forward`` misses.

An oracle builds two identical switches, drives one through the compiled
path and lets a :class:`ReferenceSwitch` run the other's tables and engine,
then compares what comes out and every counter (:func:`observed`,
:meth:`ReferenceSwitch.observed`) after each packet.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import PacketFormatError, PipelineError, ResourceExhaustedError
from repro.core.packet import DaietAck, DaietPacket
from repro.dataplane.actions import EcmpAction
from repro.dataplane.switch import SwitchCounters
from repro.netsim.devices import SwitchDevice


def observed(device: SwitchDevice) -> dict:
    """Every counter the compiled path of ``device`` keeps."""
    return {
        "counters": device.switch.counters.snapshot(),
        "bytes_parsed": device.switch.parser.bytes_parsed,
        "daiet": (device.daiet_table.hit_count, device.daiet_table.miss_count),
        "forward": (device.forwarding_table.hit_count, device.forwarding_table.miss_count),
    }


class ReferenceSwitch:
    """The switch program run step by step over ``device``'s tables and engine.

    The device's own counters are never touched: the model keeps its own.
    """

    def __init__(self, device: SwitchDevice) -> None:
        self.device = device
        self.counters = SwitchCounters()
        self.bytes_parsed = 0
        self.daiet = [0, 0]
        self.forward = [0, 0]

    def observed(self) -> dict:
        """The model's counters, in :func:`observed`'s shape."""
        return {
            "counters": self.counters.snapshot(),
            "bytes_parsed": self.bytes_parsed,
            "daiet": tuple(self.daiet),
            "forward": tuple(self.forward),
        }

    def process(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """One packet through the program; returns its transmissions."""
        switch = self.device.switch
        if not 0 <= ingress_port < switch.num_ports:
            raise PipelineError(f"ingress port {ingress_port} out of range")
        engine = None
        if isinstance(packet, (DaietPacket, DaietAck)):
            entry = self.device.daiet_table.lookup({"tree_id": packet.tree_id})
            engine = None if entry is None else entry.action
        if engine is None and not (
            hasattr(packet, "dst") and hasattr(packet, "parse_depth_bytes")
        ):
            raise PacketFormatError(f"cannot parse a {type(packet).__name__}")

        self.counters.packets_in += 1
        self.counters.bytes_in += nbytes
        depth = packet.parse_depth_bytes()
        if depth > switch.resources.max_parse_bytes:
            raise ResourceExhaustedError(f"parse depth exceeded: {depth} B")
        self.bytes_parsed += depth

        if engine is not None:
            if isinstance(packet, DaietPacket):
                self._charge(3 + max(1, len(packet.pairs)))
                self.daiet[0] += 1
                out = engine.handle_packet(packet)
            else:
                self._charge(4)
                self.daiet[0] += 1
                out = engine.handle_ack(packet)
            self.counters.packets_generated += len(out)
            self.counters.packets_out += len(out)
            self.counters.bytes_out += sum(emitted.wire_bytes() for _, emitted in out)
            return out

        entry = self.device.forwarding_table.lookup({"dst": packet.dst})
        self._charge(3 if entry is None else 4)
        self.daiet[1] += 1
        if entry is None:
            self.forward[1] += 1
            self.counters.packets_dropped += 1
            return []
        self.forward[0] += 1
        action = entry.action
        port = action.select(packet.dst) if isinstance(action, EcmpAction) else action.egress_port
        self.counters.packets_out += 1
        self.counters.bytes_out += nbytes
        return [(port, packet)]

    def _charge(self, ops: int) -> None:
        limit = self.device.switch.resources.max_ops_per_packet
        if ops > limit:
            raise ResourceExhaustedError(f"per-packet operation budget exceeded ({ops} > {limit})")

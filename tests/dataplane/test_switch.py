"""Unit tests for the programmable switch model."""

from __future__ import annotations

import pytest

from repro.core.errors import PacketFormatError, PipelineError, TableError
from repro.dataplane.switch import DAIET_TABLE, FORWARDING_TABLE, ProgrammableSwitch
from repro.dataplane.tables import FlowRule
from repro.transport.packets import UdpDatagram


def build_switch() -> ProgrammableSwitch:
    """A bare switch: its two declared tables, no entries."""
    return ProgrammableSwitch("sw0", num_ports=8)


def forward(dst: str, port: int) -> FlowRule:
    return FlowRule.create(FORWARDING_TABLE, {"dst": dst}, "forward", {"egress_port": port})


def datagram(dst: str = "h1", payload: int = 100) -> UdpDatagram:
    return UdpDatagram(src="h0", dst=dst, payload_bytes=payload)


def receive(switch: ProgrammableSwitch, packet: UdpDatagram, ingress_port: int = 0):
    return switch.receive(packet, ingress_port, packet.wire_bytes())


class TestControlPlane:
    def test_the_program_declares_two_tables(self):
        switch = build_switch()
        assert list(switch.tables) == [DAIET_TABLE, FORWARDING_TABLE]
        with pytest.raises(TypeError):
            switch.tables["extra"] = switch.tables[DAIET_TABLE]

    def test_install_rule_into_named_table(self):
        switch = build_switch()
        switch.install_rule(forward("h1", 3))
        assert len(switch.tables[FORWARDING_TABLE]) == 1

    def test_install_rules_batch(self):
        switch = build_switch()
        assert switch.install_rules([forward(f"h{i}", i) for i in range(4)]) == 4
        table = switch.tables[FORWARDING_TABLE]
        assert [e.match["dst"] for e in table.entries()] == ["h0", "h1", "h2", "h3"]
        assert table.version == 1

    def test_install_rules_resolves_every_table_before_installing(self):
        switch = build_switch()
        rules = [
            forward("h1", 1),
            FlowRule.create("nope", {"dst": "h2"}, "forward", {"egress_port": 2}),
        ]
        with pytest.raises(TableError, match="no table named 'nope'"):
            switch.install_rules(rules)
        table = switch.tables[FORWARDING_TABLE]
        assert (len(table), table.version) == (0, 0)

    def test_unknown_table_rejected(self):
        switch = build_switch()
        with pytest.raises(TableError):
            switch.install_rule(FlowRule.create("nope", {"dst": "h1"}, "forward"))

    def test_externs_registry(self):
        switch = build_switch()
        extern = object()
        switch.register_extern("daiet", extern)
        assert switch.externs == {"daiet": extern}


class TestDataPlane:
    def test_forwarding_by_destination(self):
        switch = build_switch()
        switch.install_rule(forward("h1", 5))
        packet = datagram("h1")
        assert receive(switch, packet) == [(5, packet)]
        assert switch.counters.packets_in == 1
        assert switch.counters.packets_out == 1

    def test_miss_drops(self):
        switch = build_switch()
        assert receive(switch, datagram("unknown")) == []
        assert switch.counters.packets_dropped == 1

    def test_invalid_ingress_port(self):
        switch = build_switch()
        with pytest.raises(PipelineError):
            receive(switch, datagram(), ingress_port=99)

    def test_an_unparsable_packet_is_a_format_error(self):
        switch = build_switch()
        with pytest.raises(PacketFormatError, match="of type object"):
            switch.receive(object(), 0, 64)

    def test_byte_counters_track_wire_size(self):
        switch = build_switch()
        switch.install_rule(forward("h1", 1))
        packet = datagram("h1", payload=200)
        receive(switch, packet)
        assert switch.counters.bytes_in == packet.wire_bytes()
        assert switch.counters.bytes_out == packet.wire_bytes()
        assert switch.parser.bytes_parsed == packet.parse_depth_bytes()

    def test_counters_snapshot(self):
        switch = build_switch()
        snapshot = switch.counters.snapshot()
        assert set(snapshot) == {
            "packets_in",
            "packets_out",
            "packets_dropped",
            "bytes_in",
            "bytes_out",
            "packets_generated",
        }

    def test_switch_requires_ports(self):
        with pytest.raises(PipelineError):
            ProgrammableSwitch("bad", num_ports=0)

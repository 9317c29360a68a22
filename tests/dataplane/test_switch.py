"""Unit tests for the programmable switch model."""

from __future__ import annotations

import pytest

from repro.core.errors import PipelineError, TableError
from repro.dataplane.actions import DropAction, ForwardAction
from repro.dataplane.switch import BROADCAST_PORT, ProgrammableSwitch
from repro.dataplane.tables import FlowRule, MatchActionTable
from repro.transport.packets import UdpDatagram


def build_switch() -> ProgrammableSwitch:
    """A switch with a metadata-extraction extern and one forwarding table."""
    switch = ProgrammableSwitch("sw0", num_ports=8)

    def extract(ctx) -> None:
        ctx.metadata["dst"] = getattr(ctx.packet, "dst", None)

    switch.pipeline.add_stage("extract").add_extern(extract)
    table = MatchActionTable("l3", match_fields=("dst",))
    table.register_action("forward", ForwardAction)
    table.register_action("drop", DropAction)
    switch.pipeline.add_stage("forward").add_table(table)
    return switch


def datagram(dst: str = "h1", payload: int = 100) -> UdpDatagram:
    return UdpDatagram(src="h0", dst=dst, payload_bytes=payload)


class TestControlPlane:
    def test_install_rule_into_named_table(self):
        switch = build_switch()
        switch.install_rule(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 3}))
        assert len(switch.pipeline.tables()["l3"]) == 1

    def test_install_rules_batch(self):
        switch = build_switch()
        rules = [
            FlowRule.create("l3", {"dst": f"h{i}"}, "forward", {"egress_port": i})
            for i in range(4)
        ]
        assert switch.install_rules(rules) == 4
        table = switch.pipeline.tables()["l3"]
        assert [e.match["dst"] for e in table.entries()] == ["h0", "h1", "h2", "h3"]
        assert table.version == 1

    def test_install_rules_resolves_every_table_before_installing(self):
        switch = build_switch()
        rules = [
            FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 1}),
            FlowRule.create("nope", {"dst": "h2"}, "forward", {"egress_port": 2}),
        ]
        with pytest.raises(TableError, match="no table named 'nope'"):
            switch.install_rules(rules)
        table = switch.pipeline.tables()["l3"]
        assert (len(table), table.version) == (0, 0)

    def test_unknown_table_rejected(self):
        switch = build_switch()
        with pytest.raises(TableError):
            switch.install_rule(FlowRule.create("nope", {"dst": "h1"}, "forward"))

    def test_remove_rule(self):
        switch = build_switch()
        switch.install_rule(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 3}))
        assert switch.remove_rule("l3", {"dst": "h1"}) is True
        assert switch.remove_rule("l3", {"dst": "h1"}) is False

    def test_externs_registry(self):
        switch = build_switch()
        extern = object()
        switch.register_extern("daiet", extern)
        assert switch.get_extern("daiet") is extern
        with pytest.raises(PipelineError):
            switch.get_extern("missing")


class TestDataPlane:
    def test_forwarding_by_destination(self):
        switch = build_switch()
        switch.install_rule(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 5}))
        out = switch.receive(datagram("h1"), ingress_port=0)
        assert out == [(5, out[0][1])]
        assert switch.counters.packets_in == 1
        assert switch.counters.packets_out == 1

    def test_miss_without_default_drops(self):
        switch = build_switch()
        out = switch.receive(datagram("unknown"), ingress_port=0)
        assert out == []
        assert switch.counters.packets_dropped == 1

    def test_explicit_drop(self):
        switch = build_switch()
        switch.install_rule(FlowRule.create("l3", {"dst": "h1"}, "drop"))
        out = switch.receive(datagram("h1"), ingress_port=0)
        assert out == []
        assert switch.counters.packets_dropped == 1

    def test_broadcast(self):
        switch = build_switch()
        switch.install_rule(
            FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": BROADCAST_PORT})
        )
        out = switch.receive(datagram("h1"), ingress_port=2)
        ports = sorted(port for port, _ in out)
        assert ports == [p for p in range(8) if p != 2]

    def test_invalid_ingress_port(self):
        switch = build_switch()
        with pytest.raises(PipelineError):
            switch.receive(datagram(), ingress_port=99)

    def test_byte_counters_track_wire_size(self):
        switch = build_switch()
        switch.install_rule(FlowRule.create("l3", {"dst": "h1"}, "forward", {"egress_port": 1}))
        packet = datagram("h1", payload=200)
        switch.receive(packet, ingress_port=0)
        assert switch.counters.bytes_in == packet.wire_bytes()
        assert switch.counters.bytes_out == packet.wire_bytes()

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
            "unsized_packets",
        }

    def test_packet_bytes_falls_back_to_encode(self):
        from repro.dataplane.switch import SwitchCounters, _packet_bytes

        class EncodeOnly:
            def encode(self) -> bytes:
                return b"abcde"

        class Unsized:
            pass

        counters = SwitchCounters()
        assert _packet_bytes(EncodeOnly(), counters) == 5
        assert counters.unsized_packets == 0
        assert _packet_bytes(Unsized(), counters) == 0
        assert counters.unsized_packets == 1, "unsized packet is a ledger warning"

    def test_switch_requires_ports(self):
        with pytest.raises(PipelineError):
            ProgrammableSwitch("bad", num_ports=0)

    def test_parse_only_helper(self):
        switch = build_switch()
        result = switch.parse_only(datagram())
        assert "udp" in result.headers

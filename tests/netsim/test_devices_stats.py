"""Unit tests for host/switch devices and the traffic statistics."""

from __future__ import annotations

import pytest

from repro.core.errors import TopologyError
from repro.netsim.devices import (
    DAIET_TABLE,
    FORWARDING_TABLE,
    Host,
    SwitchDevice,
    packet_wire_bytes,
)
from repro.netsim.stats import LinkTraffic, TrafficStats
from repro.transport.packets import UdpDatagram


class TestHost:
    def test_receiver_callback_and_counters(self):
        host = Host("h0")
        seen = []
        host.set_receiver(seen.append)
        packet = UdpDatagram(src="x", dst="h0", payload_bytes=50)
        host.deliver(packet, packet.wire_bytes())
        assert seen == [packet]
        assert host.counters.packets_received == 1
        assert host.counters.bytes_received == packet.wire_bytes()

    def test_note_sent_accounting(self):
        host = Host("h0")
        packet = UdpDatagram(src="h0", dst="y", payload_bytes=10)
        host.note_sent(packet)
        assert host.counters.packets_sent == 1
        assert host.counters.bytes_sent == packet.wire_bytes()

    def test_receiving_without_callback_still_counts(self):
        host = Host("h0")
        host.deliver(UdpDatagram(src="x", dst="h0", payload_bytes=1), 42)
        assert host.counters.packets_received == 1


class TestSwitchDevice:
    def test_the_program_tables_exist(self):
        device = SwitchDevice("s0")
        tables = device.switch.tables
        assert DAIET_TABLE in tables
        assert FORWARDING_TABLE in tables
        assert device.daiet_table is tables[DAIET_TABLE]
        assert device.forwarding_table is tables[FORWARDING_TABLE]

    def test_deliver_forwards_by_destination(self):
        device = SwitchDevice("s0")
        from repro.dataplane.tables import FlowRule

        device.switch.install_rule(
            FlowRule.create(FORWARDING_TABLE, {"dst": "h9"}, "forward", {"egress_port": 4})
        )
        out = device.deliver(UdpDatagram(src="a", dst="h9", payload_bytes=10), 0, 52)
        assert [port for port, _ in out] == [4]

    def test_unrouted_packet_dropped(self):
        device = SwitchDevice("s0")
        out = device.deliver(UdpDatagram(src="a", dst="nowhere", payload_bytes=10), 0, 52)
        assert out == []
        assert device.switch.counters.packets_dropped == 1


class TestPacketWireBytes:
    def test_uses_wire_bytes_method(self):
        assert packet_wire_bytes(UdpDatagram(src="a", dst="b", payload_bytes=6)) == 48

    def test_falls_back_to_length_attribute(self):
        class Fake:
            length = 77

        assert packet_wire_bytes(Fake()) == 77

    def test_rejects_objects_without_size(self):
        with pytest.raises(TopologyError):
            packet_wire_bytes(object())


class TestTrafficStats:
    def test_recording_and_totals(self):
        stats = TrafficStats()
        stats.link_traffic["l0"] = LinkTraffic(packets=2, bytes=150)
        stats.link_traffic["l1"] = LinkTraffic(packets=1, bytes=50)
        stats.record_drop("s0")
        stats.record_loss("l0")
        stats.record_loss("l0")
        assert stats.total_link_bytes() == 200
        assert stats.total_link_packets() == 3
        assert stats.total_losses() == 2
        assert stats.drops == {"s0": 1}
        assert stats.snapshot()["link_traffic"] == {"l0": (2, 150), "l1": (1, 50)}

    def test_snapshot_is_a_copy(self):
        stats = TrafficStats()
        stats.link_traffic["l0"] = LinkTraffic(packets=1, bytes=10)
        stats.record_loss("l0")
        snapshot = stats.snapshot()
        snapshot["link_traffic"]["l0"] = (9, 90)
        snapshot["losses"]["l0"] = 9
        assert stats.total_link_packets() == 1
        assert stats.total_losses() == 1

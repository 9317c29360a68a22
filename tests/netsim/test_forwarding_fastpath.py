"""The compiled forwarding path must be observationally identical to the
generic pipeline.

``SwitchDevice.deliver`` forwards baseline traffic (UDP datagrams, TCP
segments, DAIET packets with no steering entry) with one probe of
``l3_forward``'s exact index instead of the generic pipeline. Every counter
the generic path touches — switch packets/bytes in/out, drops, parser
charges, ``packets_processed``, both tables' hit/miss counts — must come out
the same, and the next packet after a control-plane mutation must see it.
"""

from __future__ import annotations

from repro.core.packet import DaietPacket, DaietPacketType
from repro.dataplane.actions import SetMetadataAction
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE, SwitchDevice
from repro.netsim.routing import RackPrefix
from repro.transport.packets import TcpSegment, UdpDatagram


def _forwarding_switch(name: str = "sw") -> SwitchDevice:
    device = SwitchDevice(name, num_ports=8)
    for dst, port in (("h0", 0), ("h1", 1), ("h2", 2)):
        device.switch.install_rule(
            FlowRule.create(
                table=FORWARDING_TABLE,
                match={"dst": dst},
                action_name="forward",
                action_params={"egress_port": port},
            )
        )
    return device


def _observable_state(device: SwitchDevice) -> dict:
    return {
        "counters": device.switch.counters.snapshot(),
        "parser": (
            device.switch.parser.packets_parsed,
            device.switch.parser.bytes_parsed,
        ),
        "processed": device.switch.pipeline.packets_processed,
        "daiet_hits": (device.daiet_table.hit_count, device.daiet_table.miss_count),
        "fwd_hits": (
            device.forwarding_table.hit_count,
            device.forwarding_table.miss_count,
        ),
    }


def _packets() -> list:
    return [
        UdpDatagram(src="h0", dst="h1", sport=5, dport=9, payload_bytes=64),
        UdpDatagram(src="h1", dst="h2", payload_bytes=1),
        TcpSegment(src="h2", dst="h0", payload_bytes=512, fin=True),
        TcpSegment(src="h0", dst="h2", seq=100, payload_bytes=9),
        # DAIET data with NO steering entry: the UDP-baseline shape.
        DaietPacket(
            tree_id=42,
            src="h0",
            dst="h1",
            packet_type=DaietPacketType.DATA,
            pairs=(("ant", 1), ("bee", 2)),
        ),
        # Unknown destination: a forwarding miss (counted drop).
        UdpDatagram(src="h0", dst="nowhere", payload_bytes=7),
    ]


def _aggregated_switch() -> SwitchDevice:
    """``_forwarding_switch`` plus two rack entries: an ECMP group towards
    rack B (four paths over three ports) and a plain forward towards rack C.
    Rack D is in the address plan but has no entry."""
    device = _forwarding_switch()
    device.switch.install_rules(
        [
            FlowRule.create(
                FORWARDING_TABLE,
                {"dst": RackPrefix("leafB")},
                "ecmp",
                {"ports": (4, 5, 6), "paths": (1, 2, 1), "seed": 3, "switch": "sw"},
            ),
            FlowRule.create(
                FORWARDING_TABLE, {"dst": RackPrefix("leafC")}, "forward", {"egress_port": 7}
            ),
        ]
    )
    plan = {f"b{i}": RackPrefix("leafB") for i in range(12)}
    plan.update(c0=RackPrefix("leafC"), d0=RackPrefix("leafD"))
    device.forwarding_table.set_address_plan(plan)
    return device


class TestForwardingFastPathEquivalence:
    def test_fast_path_matches_generic_pipeline(self):
        fast = _forwarding_switch()
        slow = _forwarding_switch()
        for packet in _packets():
            nbytes = packet.wire_bytes()
            out_fast = fast.deliver(packet, 3, nbytes)
            out_slow = slow.switch.receive(packet, 3, nbytes)
            assert out_fast == out_slow
        assert _observable_state(fast) == _observable_state(slow)

    def test_rack_entries_and_ecmp_groups_match_generic_pipeline(self):
        fast = _aggregated_switch()
        slow = _aggregated_switch()
        packets = _packets() + [
            UdpDatagram(src="h0", dst=f"b{i}", payload_bytes=i) for i in range(12)
        ]
        packets += [
            TcpSegment(src="h0", dst="c0", payload_bytes=5),
            # Planned, but rack D has no entry: a miss.
            UdpDatagram(src="h0", dst="d0", payload_bytes=5),
            # A switch's own name is not its rack's prefix: a miss.
            UdpDatagram(src="h0", dst="leafB", payload_bytes=5),
        ]
        ports = []
        for packet in packets:
            nbytes = packet.wire_bytes()
            out_fast = fast.deliver(packet, 3, nbytes)
            assert out_fast == slow.switch.receive(packet, 3, nbytes)
            ports.append(out_fast[0][0] if out_fast else None)
        assert _observable_state(fast) == _observable_state(slow)
        group = fast.forwarding_table.lookup({"dst": "b0"}).action
        assert ports[-15:-3] == [group.select(f"b{i}") for i in range(12)]
        assert set(ports[-15:-3]) == {4, 5, 6}
        assert ports[-3:] == [7, None, None]
        assert fast.forwarding_table.miss_count == 3  # nowhere, d0, leafB

    def test_cache_invalidated_by_rule_install(self):
        device = _forwarding_switch()
        packet = UdpDatagram(src="h0", dst="h9", payload_bytes=4)
        # First delivery: miss -> drop.
        assert device.deliver(packet, 3, packet.wire_bytes()) == []
        assert device.switch.counters.packets_dropped == 1
        device.switch.install_rule(
            FlowRule.create(
                table=FORWARDING_TABLE,
                match={"dst": "h9"},
                action_name="forward",
                action_params={"egress_port": 5},
            )
        )
        assert device.deliver(packet, 3, packet.wire_bytes()) == [(5, packet)]

    def test_cache_invalidated_by_rule_removal(self):
        device = _forwarding_switch()
        packet = UdpDatagram(src="h0", dst="h1", payload_bytes=4)
        assert device.deliver(packet, 3, packet.wire_bytes()) == [(1, packet)]
        device.switch.remove_rule(FORWARDING_TABLE, {"dst": "h1"})
        assert device.deliver(packet, 3, packet.wire_bytes()) == []

    def test_non_standard_action_falls_back(self):
        """A non-ForwardAction entry must not be served from the fast path."""
        fast = _forwarding_switch()
        slow = _forwarding_switch()
        for device in (fast, slow):
            table = device.forwarding_table
            table.register_action("mark", SetMetadataAction(key="marked", value=True))
            table.install(
                FlowRule.create(
                    table=FORWARDING_TABLE,
                    match={"dst": "weird"},
                    action_name="mark",
                )
            )
        packet = UdpDatagram(src="h0", dst="weird", payload_bytes=4)
        out_fast = fast.deliver(packet, 3, packet.wire_bytes())
        out_slow = slow.switch.receive(packet, 3, packet.wire_bytes())
        assert out_fast == out_slow
        assert _observable_state(fast) == _observable_state(slow)

    def test_non_default_miss_action_falls_back(self):
        """A custom table default action must run on misses, exactly as the
        generic pipeline would (the fast path only models a free NoAction)."""
        fast = _forwarding_switch()
        slow = _forwarding_switch()
        for device in (fast, slow):
            # A miss on l3_forward now forwards to a punt port instead of
            # dropping (set_default_action bumps the table version, so the
            # fast path's cached miss must be invalidated AND bypassed).
            device.forwarding_table.set_default_action(SetMetadataAction(key="egress_port", value=7))
        unknown = UdpDatagram(src="h0", dst="mystery", payload_bytes=3)
        known = UdpDatagram(src="h0", dst="h1", payload_bytes=3)
        for packet in (unknown, known, unknown):
            out_fast = fast.deliver(packet, 3, packet.wire_bytes())
            out_slow = slow.switch.receive(packet, 3, packet.wire_bytes())
            assert out_fast == out_slow
        assert _observable_state(fast) == _observable_state(slow)

    def test_daiet_steered_traffic_unaffected(self):
        """Packets with a steering entry still go to the aggregation path."""
        from repro.core.config import DaietConfig
        from repro.core.daiet import DaietSystem

        system = DaietSystem.single_rack(num_hosts=3, config=DaietConfig(register_slots=64))
        system.install_job(mappers=["h0", "h1"], reducers=["h2"])
        system.send_pairs("h0", "h2", [("ant", 1)])
        system.send_pairs("h1", "h2", [("ant", 2)])
        system.run()
        assert system.receiver("h2").result() == {"ant": 3}

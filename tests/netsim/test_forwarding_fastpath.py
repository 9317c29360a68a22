"""The switch's forwarding stage must do what the switch program says.

``ProgrammableSwitch.receive`` forwards everything no steering entry takes
(UDP datagrams, TCP segments, DAIET packets with no steering entry) with one
probe of ``l3_forward``'s index, then the rack prefix the address plan names.
A twin switch runs the same packets through the reference model of the
program (``switch_program_model.ReferenceSwitch``): emissions, switch
packets/bytes in/out, drops, ``bytes_parsed`` and both tables' hit/miss
counts must agree after every packet, and the next packet after a
control-plane mutation must see it. What the program does not declare is
refused when it is pushed, not per packet.
"""

from __future__ import annotations

import re

import pytest
from switch_program_model import ReferenceSwitch, observed

from repro.core.errors import (
    PacketFormatError,
    PipelineError,
    ResourceExhaustedError,
    TableError,
)
from repro.core.packet import DaietPacket, DaietPacketType
from repro.dataplane import switch as switch_module
from repro.dataplane.actions import EcmpAction, ForwardAction
from repro.dataplane.resources import SwitchResources
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import DAIET_TABLE, FORWARDING_TABLE, SwitchDevice
from repro.netsim.routing import RackPrefix
from repro.transport.packets import TcpSegment, UdpDatagram


def _forward_rule(dst: str, port: int) -> FlowRule:
    return FlowRule.create(
        table=FORWARDING_TABLE,
        match={"dst": dst},
        action_name="forward",
        action_params={"egress_port": port},
    )


def _forwarding_switch(name: str = "sw") -> SwitchDevice:
    device = SwitchDevice(name, num_ports=8)
    for dst, port in (("h0", 0), ("h1", 1), ("h2", 2)):
        device.switch.install_rule(_forward_rule(dst, port))
    return device


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


def _run_twins(fast: SwitchDevice, model: ReferenceSwitch, packets: list) -> list:
    """Each packet through ``fast.deliver`` and the model; the egress ports."""
    ports = []
    for packet in packets:
        nbytes = packet.wire_bytes()
        out = fast.deliver(packet, 3, nbytes)
        assert out == model.process(packet, 3, nbytes)
        assert observed(fast) == model.observed()
        ports.append(out[0][0] if out else None)
    return ports


class TestForwardingMatchesTheProgram:
    def test_forwarding_matches_the_reference_model(self):
        fast = _forwarding_switch()
        ports = _run_twins(fast, ReferenceSwitch(_forwarding_switch()), _packets())
        assert ports == [1, 2, 0, 2, 1, None]
        assert observed(fast)["daiet"] == (0, 6)

    def test_rack_entries_and_ecmp_groups_match_the_reference_model(self):
        fast = _aggregated_switch()
        packets = _packets() + [
            UdpDatagram(src="h0", dst=f"b{i}", payload_bytes=i) for i in range(12)
        ]
        packets += [
            TcpSegment(src="h0", dst="c0", payload_bytes=5),
            # Planned, but rack D has no entry: a miss.
            UdpDatagram(src="h0", dst="d0", payload_bytes=5),
            # A switch's own name is not its rack's prefix: a miss.
            UdpDatagram(src="h0", dst="leafB", payload_bytes=5),
            # An unhashable address matches nothing, the plan included.
            UdpDatagram(src="h0", dst=["h1"], payload_bytes=5),
        ]
        ports = _run_twins(fast, ReferenceSwitch(_aggregated_switch()), packets)
        group = fast.forwarding_table.lookup({"dst": "b0"}).action
        assert ports[-16:-4] == [group.select(f"b{i}") for i in range(12)]
        assert set(ports[-16:-4]) == {4, 5, 6}
        assert ports[-4:] == [7, None, None, None]
        assert fast.forwarding_table.miss_count == 4  # nowhere, d0, leafB, ["h1"]

    def test_a_rule_install_between_packets_matches_the_reference_model(self):
        fast, twin = _forwarding_switch(), _forwarding_switch()
        model = ReferenceSwitch(twin)
        packet = UdpDatagram(src="h0", dst="h9", payload_bytes=4)
        assert _run_twins(fast, model, [packet]) == [None]
        for device in (fast, twin):
            device.switch.install_rule(_forward_rule("h9", 5))
        assert _run_twins(fast, model, [packet]) == [5]
        for device in (fast, twin):
            device.forwarding_table.remove({"dst": "h9"})
        assert _run_twins(fast, model, [packet]) == [None]
        assert fast.switch.counters.packets_dropped == 2

    @pytest.mark.parametrize(
        "index", range(6), ids=["udp", "udp-1", "tcp-fin", "tcp", "unsteered-daiet", "miss"]
    )
    def test_each_packet_exactly_at_its_budgets_passes_and_one_under_raises(
        self, monkeypatch, index
    ):
        packet = _packets()[index]
        ops = 3 if packet.dst == "nowhere" else 4
        depth, nbytes = packet.parse_depth_bytes(), packet.wire_bytes()
        exact = {"max_ops_per_packet": ops, "max_parse_bytes": depth}
        for budgets, message in (
            (exact, None),
            ({**exact, "max_ops_per_packet": ops - 1}, f"({ops} > {ops - 1})"),
            ({**exact, "max_parse_bytes": depth - 1}, f"needs {depth} B, target limit is"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(switch_module, "SwitchResources", lambda: SwitchResources(**budgets))
                fast, twin = _forwarding_switch(), _forwarding_switch()
            if message is None:
                _run_twins(fast, ReferenceSwitch(twin), [packet])
                continue
            with pytest.raises(ResourceExhaustedError, match=re.escape(message)):
                fast.deliver(packet, 3, nbytes)
            assert observed(fast)["forward"] == (0, 0)

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


class _NoDepth:
    """Has an address but declares no parse depth."""

    dst = "h1"


class _NoAddress:
    """Declares a parse depth but has no address."""

    def parse_depth_bytes(self) -> int:
        return 42


#: ``(table, action name, action)`` bindings neither declared table accepts.
REFUSED_BINDINGS = [
    (FORWARDING_TABLE, "mark", ForwardAction),
    (FORWARDING_TABLE, "forward", EcmpAction),
    (FORWARDING_TABLE, "ecmp", ForwardAction(egress_port=1)),
    (DAIET_TABLE, "mark", ForwardAction),
    (DAIET_TABLE, "aggregate", ForwardAction(egress_port=1)),
    (DAIET_TABLE, "forward", ForwardAction),
]


class TestWhatTheProgramRefuses:
    @pytest.mark.parametrize(("table", "name", "action"), REFUSED_BINDINGS)
    def test_another_action_is_refused(self, table, name, action):
        device = _forwarding_switch()
        with pytest.raises(TableError, match="declared actions"):
            device.switch.tables[table].register_action(name, action)

    @pytest.mark.parametrize(
        ("table", "match"), [(FORWARDING_TABLE, {"dst": "x"}), (DAIET_TABLE, {"tree_id": 1})]
    )
    def test_a_rule_for_another_action_is_refused(self, table, match):
        device = _forwarding_switch()
        for name in ("mark", "forward" if table == DAIET_TABLE else "aggregate"):
            with pytest.raises(TableError, match=f"no action named {name!r}"):
                device.switch.install_rule(FlowRule.create(table, match, name))
        assert len(device.forwarding_table) == 3 and len(device.daiet_table) == 0

    def test_a_negative_port_is_refused_when_it_is_pushed(self):
        with pytest.raises(TableError, match="egress port >= 0"):
            ForwardAction(egress_port=-1)
        device = _forwarding_switch()
        with pytest.raises(TableError, match="egress port >= 0"):
            device.switch.install_rules([_forward_rule("h7", 1), _forward_rule("h8", -1)])
        assert device.forwarding_table.lookup({"dst": "h7"}) is None

    @pytest.mark.parametrize(
        "packet", [object(), "h1", 42, _NoDepth(), _NoAddress()],
        ids=["object", "str", "int", "no-depth", "no-address"],
    )
    def test_a_packet_neither_stage_knows_is_a_format_error(self, packet):
        device = _forwarding_switch()
        with pytest.raises(PacketFormatError, match="cannot parse"):
            device.deliver(packet, 3, 64)
        assert device.switch.counters.packets_in == 0

    @pytest.mark.parametrize("port", [-1, 8])
    def test_an_ingress_port_the_switch_lacks_is_refused(self, port):
        device = _forwarding_switch()
        packet = UdpDatagram(src="h0", dst="h1", payload_bytes=4)
        with pytest.raises(PipelineError, match="out of range"):
            device.deliver(packet, port, packet.wire_bytes())
        assert device.switch.counters.packets_in == 0

"""Unit tests for the parse-depth budget."""

from __future__ import annotations

import pytest

from repro.core.config import DaietConfig
from repro.core.errors import ResourceExhaustedError
from repro.core.packet import DaietAck, DaietPacket, end_packet
from repro.dataplane.parser import HeaderParser
from repro.dataplane.resources import SwitchResources
from repro.transport.packets import TcpSegment, UdpDatagram


class TestHeaderParser:
    def test_transport_packets_parse_only_their_headers(self):
        parser = HeaderParser()
        assert parser.charge(UdpDatagram(src="a", dst="b", payload_bytes=100)) == 14 + 20 + 8
        assert parser.charge(TcpSegment(src="a", dst="b", payload_bytes=1460)) == 14 + 20 + 20
        assert parser.bytes_parsed == 42 + 54

    def test_daiet_packets_parse_whole(self):
        parser = HeaderParser()
        packet = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k1", 1), ("k2", 2)))
        ack = DaietAck(tree_id=1, src="a", dst="b", sack=(3,))
        assert parser.charge(packet) == packet.wire_bytes()
        assert parser.charge(ack) == ack.wire_bytes()

    @pytest.mark.parametrize(
        "packet",
        [
            UdpDatagram(src="a", dst="b", payload_bytes=500),
            TcpSegment(src="a", dst="b", payload_bytes=500),
            DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k1", 1),)),
            end_packet(1, "a", "b"),
            DaietAck(tree_id=1, src="a", dst="b", sack=(3, 4)),
        ],
        ids=["udp", "tcp", "data", "end", "ack"],
    )
    def test_the_limit_is_inclusive_and_the_error_names_depth_and_limit(self, packet):
        depth = packet.parse_depth_bytes()
        assert HeaderParser(SwitchResources(max_parse_bytes=depth)).charge(packet) == depth
        parser = HeaderParser(SwitchResources(max_parse_bytes=depth - 1))
        with pytest.raises(
            ResourceExhaustedError,
            match=rf"a {type(packet).__name__} needs {depth} B, target limit is {depth - 1} B",
        ):
            parser.charge(packet)
        assert parser.bytes_parsed == 0

    def test_default_budget_fits_ten_pairs_but_not_fourteen(self):
        parser = HeaderParser()
        ten = DaietPacket(
            tree_id=1, src="a", dst="b",
            pairs=tuple((f"key{i}", i) for i in range(10)),
            config=DaietConfig(pairs_per_packet=10),
        )
        parser.charge(ten)  # must not raise
        fourteen = DaietPacket(
            tree_id=1, src="a", dst="b",
            pairs=tuple((f"key{i}", i) for i in range(14)),
            config=DaietConfig(pairs_per_packet=14),
        )
        with pytest.raises(ResourceExhaustedError):
            parser.charge(fourteen)

"""Unit tests for the UDP and TCP transport models."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import TransportError
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import single_rack
from repro.transport.packets import MessagePayload, TcpSegment, UdpDatagram
from repro.transport.tcp import TcpTransport, segment_message
from repro.transport.udp import UdpTransport


class TestPackets:
    def test_udp_wire_size_includes_headers(self):
        datagram = UdpDatagram(src="a", dst="b", payload_bytes=100)
        assert datagram.wire_bytes() == 14 + 20 + 8 + 100

    def test_tcp_wire_size_includes_headers(self):
        segment = TcpSegment(src="a", dst="b", payload_bytes=1460)
        assert segment.wire_bytes() == 14 + 20 + 20 + 1460

    def test_negative_payload_rejected(self):
        with pytest.raises(TransportError):
            UdpDatagram(src="a", dst="b", payload_bytes=-1)
        with pytest.raises(TransportError):
            TcpSegment(src="a", dst="b", payload_bytes=-1)
        with pytest.raises(TransportError):
            TcpSegment(src="a", dst="b", seq=-1)


class TestSegmentation:
    def test_message_split_at_mss(self):
        segments = segment_message("a", "b", message_bytes=3000, mss=1460)
        assert [s.payload_bytes for s in segments] == [1460, 1460, 80]
        assert segments[-1].fin is True
        assert all(not s.fin for s in segments[:-1])

    def test_payload_rides_on_final_segment(self):
        payload = MessagePayload(kind="map_output", data=[("k", 1)])
        segments = segment_message("a", "b", message_bytes=2000, payload=payload, mss=1460)
        assert segments[-1].payload is payload
        assert all(s.payload is None for s in segments[:-1])

    def test_empty_message_is_single_fin_segment(self):
        segments = segment_message("a", "b", message_bytes=0)
        assert len(segments) == 1 and segments[0].fin

    def test_invalid_arguments(self):
        with pytest.raises(TransportError):
            segment_message("a", "b", message_bytes=-1)
        with pytest.raises(TransportError):
            segment_message("a", "b", message_bytes=10, mss=0)

    @given(
        message_bytes=st.integers(min_value=0, max_value=100_000),
        mss=st.integers(min_value=16, max_value=9000),
    )
    def test_segment_count_and_bytes_conserved(self, message_bytes, mss):
        segments = segment_message("a", "b", message_bytes=message_bytes, mss=mss)
        assert sum(s.payload_bytes for s in segments) == message_bytes
        assert len(segments) == max(1, math.ceil(message_bytes / mss))
        sequence = 0
        for segment in segments:
            assert segment.seq == sequence
            sequence += segment.payload_bytes


class TestTransportsOverSimulator:
    def test_tcp_message_delivery(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        transport = TcpTransport(sim, mss=500)
        received: list[tuple[str, MessagePayload]] = []
        transport.listen("h1", 9000, lambda src, payload: received.append((src, payload)))
        payload = MessagePayload(kind="map_output", data=[("k", 1)])
        segments = transport.send_message("h0", "h1", message_bytes=1200, payload=payload, dport=9000)
        sim.run()
        assert segments == 3
        assert received == [("h0", payload)]
        assert transport.stats.segments_sent == 3
        assert transport.stats.payload_bytes_sent == 1200
        assert sim.host("h1").counters.packets_received == 3

    def test_tcp_listener_filters_by_port(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        transport = TcpTransport(sim)
        received = []
        transport.listen("h1", 9000, lambda src, payload: received.append(payload))
        transport.send_message("h0", "h1", message_bytes=10, dport=1234)
        sim.run()
        assert received == []

    def test_udp_datagram_delivery(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        transport = UdpTransport(sim)
        received = []
        transport.listen("h1", 5000, lambda src, payload: received.append((src, payload.data)))
        transport.send_datagram(
            "h0", "h1", MessagePayload(kind="msg", data=42), payload_bytes=100, dport=5000
        )
        sim.run()
        assert received == [("h0", 42)]
        assert transport.stats.datagrams_sent == 1

    def test_udp_oversized_datagram_rejected(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        transport = UdpTransport(sim, payload_limit=100)
        with pytest.raises(TransportError):
            transport.send_datagram("h0", "h1", None, payload_bytes=101)

    def test_udp_send_raw_counts_wire_bytes(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        transport = UdpTransport(sim)
        packet = UdpDatagram(src="h0", dst="h1", payload_bytes=64)
        transport.send_raw(packet, src="h0")
        sim.run()
        assert transport.stats.wire_bytes_sent == packet.wire_bytes()
        assert sim.host("h1").counters.packets_received == 1

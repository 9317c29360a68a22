"""Unit and property tests for the DAIET wire format."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DaietConfig
from repro.core.errors import PacketFormatError
from repro.core.packet import (
    DaietAck,
    DaietPacket,
    DaietPacketType,
    SeenWindow,
    end_packet,
    fast_data_packets,
    packetize_pairs,
)

#: Keys valid under the fixed-size 16-byte representation.
key_strategy = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=16
)
value_strategy = st.integers(min_value=-(2**31), max_value=2**31 - 1)
pairs_strategy = st.lists(st.tuples(key_strategy, value_strategy), max_size=10)

#: Binary-ish keys: arbitrary codepoints (NUL included) whose UTF-8 encoding
#: still fits the fixed 16-byte key field.
binary_key_strategy = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x2FF),
    min_size=1,
    max_size=16,
).filter(lambda key: 1 <= len(key.encode()) <= 16)
binary_pairs_strategy = st.lists(
    st.tuples(binary_key_strategy, value_strategy), max_size=10
)


class TestDaietPacket:
    def test_data_packet_sizes(self):
        packet = DaietPacket(tree_id=1, src="m0", dst="r0", pairs=(("word", 3),))
        assert packet.num_pairs == 1
        assert packet.payload_bytes() == 8 + 20
        assert packet.wire_bytes() == 14 + 20 + 8 + 8 + 20

    def test_end_packet_has_no_pairs(self):
        packet = end_packet(tree_id=2, src="m0", dst="r0")
        assert packet.packet_type is DaietPacketType.END
        assert packet.payload_bytes() == 8
        with pytest.raises(PacketFormatError):
            DaietPacket(
                tree_id=2, src="m0", dst="r0",
                packet_type=DaietPacketType.END, pairs=(("x", 1),),
            )

    def test_too_many_pairs_rejected(self):
        config = DaietConfig(pairs_per_packet=2)
        with pytest.raises(PacketFormatError):
            DaietPacket(
                tree_id=1, src="a", dst="b",
                pairs=(("a", 1), ("b", 2), ("c", 3)), config=config,
            )

    def test_oversized_key_rejected(self):
        with pytest.raises(PacketFormatError):
            DaietPacket(tree_id=1, src="a", dst="b", pairs=(("x" * 17, 1),))

    def test_negative_tree_id_rejected(self):
        with pytest.raises(PacketFormatError):
            DaietPacket(tree_id=-1, src="a", dst="b")

    def test_header_stack_contains_pairs(self):
        packet = DaietPacket(tree_id=7, src="a", dst="b", pairs=(("k", 1), ("q", 2)))
        names = [name for name, _, _ in packet.header_stack()]
        assert names == ["ethernet", "ipv4", "udp", "daiet", "kv_0", "kv_1"]

    def test_variable_length_keys_shrink_payload(self):
        fixed = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("ab", 1),))
        variable = DaietPacket(
            tree_id=1, src="a", dst="b", pairs=(("ab", 1),),
            config=DaietConfig(variable_length_keys=True),
        )
        assert variable.payload_bytes() < fixed.payload_bytes()

    def test_value_overflow_detected_at_encode(self):
        packet = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 2**40),))
        with pytest.raises(PacketFormatError):
            packet.encode()


class TestEncodeDecode:
    def test_simple_round_trip(self):
        packet = DaietPacket(tree_id=3, src="m1", dst="r2", pairs=(("hello", 42), ("world", -7)))
        decoded = DaietPacket.decode(packet.encode(), src="m1", dst="r2")
        assert decoded.tree_id == 3
        assert decoded.pairs == (("hello", 42), ("world", -7))
        assert decoded.packet_type is DaietPacketType.DATA

    def test_truncated_payload_rejected(self):
        packet = DaietPacket(tree_id=3, src="a", dst="b", pairs=(("abc", 1),))
        data = packet.encode()
        with pytest.raises(PacketFormatError):
            DaietPacket.decode(data[:-3], src="a", dst="b")
        with pytest.raises(PacketFormatError):
            DaietPacket.decode(data[:4], src="a", dst="b")

    @settings(max_examples=60)
    @given(pairs=pairs_strategy, tree_id=st.integers(0, 2**31 - 1))
    def test_round_trip_property_fixed_keys(self, pairs, tree_id):
        packet = DaietPacket(tree_id=tree_id, src="a", dst="b", pairs=tuple(pairs))
        decoded = DaietPacket.decode(packet.encode(), src="a", dst="b")
        assert decoded.pairs == tuple(pairs)
        assert decoded.tree_id == tree_id

    @settings(max_examples=60)
    @given(pairs=pairs_strategy)
    def test_round_trip_property_variable_keys(self, pairs):
        config = DaietConfig(variable_length_keys=True)
        packet = DaietPacket(tree_id=5, src="a", dst="b", pairs=tuple(pairs), config=config)
        decoded = DaietPacket.decode(packet.encode(), src="a", dst="b", config=config)
        assert decoded.pairs == tuple(pairs)

    def test_nul_suffixed_keys_round_trip(self):
        # Keys that legitimately end in NUL bytes must survive the fixed-width
        # padding: ``rstrip`` alone would corrupt them.
        pairs = (("ab\x00", 1), ("c\x00\x00", 2), ("\x00", 3), ("plain", 4))
        packet = DaietPacket(tree_id=1, src="a", dst="b", pairs=pairs)
        decoded = DaietPacket.decode(packet.encode(), src="a", dst="b")
        assert decoded.pairs == pairs

    @settings(max_examples=80)
    @given(
        pairs=binary_pairs_strategy,
        seq=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_round_trip_property_binary_and_nul_keys(self, pairs, seq):
        packet = DaietPacket(tree_id=2, src="a", dst="b", pairs=tuple(pairs), seq=seq)
        decoded = DaietPacket.decode(packet.encode(), src="a", dst="b")
        assert decoded.pairs == tuple(pairs)
        assert decoded.seq == seq

    @settings(max_examples=80)
    @given(
        pairs=binary_pairs_strategy,
        seq=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_encode_length_matches_payload_bytes(self, pairs, seq):
        packet = DaietPacket(tree_id=2, src="a", dst="b", pairs=tuple(pairs), seq=seq)
        assert len(packet.encode()) == packet.payload_bytes()

    def test_seq_round_trip_and_sizes(self):
        plain = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 1),))
        sequenced = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 1),), seq=7)
        assert sequenced.payload_bytes() == plain.payload_bytes() + 4
        decoded = DaietPacket.decode(sequenced.encode(), src="a", dst="b")
        assert decoded.seq == 7
        assert DaietPacket.decode(plain.encode(), src="a", dst="b").seq is None


class TestReliabilityPrimitives:
    def test_seen_window_tracks_cumulative_and_gaps(self):
        window = SeenWindow()
        assert window.observe(0) and window.observe(2)
        assert window.cumulative == 1
        assert window.has_gaps
        assert not window.observe(2), "duplicate detected"
        assert window.observe(1)
        assert window.cumulative == 3 and not window.has_gaps

    def test_seen_window_flags_the_arrivals_that_open_and_close_a_hole(self):
        window = SeenWindow()
        edges = []
        #            in order | opens | in between | partial | closes | next hole
        for seq in (0, 1,       4,      5, 7,        2,        3,       9, 9, 6):
            fresh = window.observe(seq)
            edges.append((seq, fresh, window.edge))
            # The flag rides beside the cadence count, which it never resets.
            assert window.count_arrival() == len(edges)
        assert edges == [
            (0, True, False),
            (1, True, False),
            (4, True, True),  # out of order with nothing buffered
            (5, True, False),
            (7, True, False),  # a second hole behind the first: nothing new
            (2, True, False),  # the hole is two wide: not closed yet
            (3, True, True),  # cumulative jumps to 6
            (9, True, False),  # 7 is still buffered
            (9, False, False),  # a duplicate is acknowledged for being one
            (6, True, True),  # jumps over 7, and 9 keeps a hole open behind it
        ]
        assert window.take_ack() == (8, (9,), 0)
        assert window.since_ack == 0

    def test_seen_window_completeness_requires_end_and_no_gaps(self):
        window = SeenWindow()
        window.observe(0)
        window.observe(2)
        window.end_seq = 2
        assert not window.complete
        window.observe(1)
        assert window.complete

    def test_ack_state_truncates_sack(self):
        window = SeenWindow()
        for seq in range(1, 100):
            window.observe(seq)  # seq 0 missing: everything is out of order
        cumulative, sack = window.ack_state(max_sack=4)
        assert cumulative == 0
        assert sack == (1, 2, 3, 4)

    def test_ack_wire_size_grows_with_sack(self):
        small = DaietAck(tree_id=1, src="s", dst="d", cumulative=3)
        large = DaietAck(tree_id=1, src="s", dst="d", cumulative=3, sack=(5, 7))
        assert large.wire_bytes() == small.wire_bytes() + 8
        assert small.header_stack()[-1][0] == "daiet_ack"

    def test_packetize_assigns_consecutive_seqs(self):
        config = DaietConfig(pairs_per_packet=2)
        packets = list(
            packetize_pairs(
                [(f"k{i}", i) for i in range(5)],
                tree_id=1, src="m", dst="r", config=config, seq_start=10,
            )
        )
        assert [p.seq for p in packets] == [10, 11, 12, 13]
        assert packets[-1].packet_type is DaietPacketType.END


class TestPacketize:
    def test_packetize_respects_pair_limit(self):
        config = DaietConfig(pairs_per_packet=3)
        pairs = [(f"k{i}", i) for i in range(8)]
        packets = list(
            packetize_pairs(pairs, tree_id=1, src="m", dst="r", config=config)
        )
        data_packets = [p for p in packets if p.packet_type is DaietPacketType.DATA]
        assert [p.num_pairs for p in data_packets] == [3, 3, 2]
        assert packets[-1].packet_type is DaietPacketType.END

    def test_packetize_empty_stream_still_emits_end(self):
        packets = list(packetize_pairs([], tree_id=1, src="m", dst="r"))
        assert len(packets) == 1
        assert packets[0].packet_type is DaietPacketType.END

    def test_packetize_without_end(self):
        packets = list(
            packetize_pairs([("a", 1)], tree_id=1, src="m", dst="r", include_end=False)
        )
        assert all(p.packet_type is DaietPacketType.DATA for p in packets)

    @settings(max_examples=40)
    @given(pairs=st.lists(st.tuples(key_strategy, value_strategy), max_size=60))
    def test_packetize_preserves_pair_sequence(self, pairs):
        packets = list(packetize_pairs(pairs, tree_id=1, src="m", dst="r"))
        reassembled = [pair for p in packets for pair in p.pairs]
        assert reassembled == pairs
        assert packets[-1].packet_type is DaietPacketType.END
        assert all(p.num_pairs <= DaietConfig().pairs_per_packet for p in packets)


def _observables(packet: DaietPacket, config: DaietConfig) -> dict:
    """Everything a packet can be asked, cached sizes included."""
    return {
        "fields": (
            packet.tree_id, packet.src, packet.dst, packet.packet_type,
            packet.pairs, packet.config, packet.seq, packet.ecn,
        ),
        "keylen": packet._needs_keylens(),
        "payload_bytes": packet.payload_bytes(),
        "wire_bytes": packet.wire_bytes(),
        "parse_depth_bytes": packet.parse_depth_bytes(),
        "header_sizes": packet.header_sizes(),
        "header_stack": packet.header_stack(),
        "vector_pairs": packet.vector_pairs(),
        "encoded": packet.encode(),
        "decoded": DaietPacket.decode(packet.encode(), packet.src, packet.dst, config),
    }


class TestPacketsBuiltOnce:
    """A packet stamped at construction, or re-stamped from its cached sizes,
    is the packet ``dataclasses.replace`` would rebuild and re-measure."""

    CONFIGS = {
        "fixed": DaietConfig(pairs_per_packet=3),
        "variable": DaietConfig(pairs_per_packet=3, variable_length_keys=True),
    }
    PAIRS = [("ant", 1), ("bee\x00", -2), ("cat", 3), ("dragonfly", 4), ("e", 2**31 - 1)]

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    def test_seq_start_equals_replace(self, kind):
        config = self.CONFIGS[kind]
        plain = list(packetize_pairs(self.PAIRS, tree_id=4, src="m", dst="r", config=config))
        stamped = list(
            packetize_pairs(
                self.PAIRS, tree_id=4, src="m", dst="r", config=config, seq_start=7
            )
        )
        assert len(plain) == len(stamped) == 3
        for offset, (packet, built) in enumerate(zip(plain, stamped)):
            reference = replace(packet, seq=7 + offset)
            assert built == reference
            assert _observables(built, config) == _observables(reference, config)

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    @pytest.mark.parametrize("seq_start", [None, 0, 2**32 - 2])
    def test_fast_data_packets_equal_packetize(self, kind, seq_start):
        config = self.CONFIGS[kind]
        fast = fast_data_packets(
            self.PAIRS, tree_id=4, src="sw", dst="r", config=config, seq_start=seq_start
        )
        slow = list(
            packetize_pairs(
                self.PAIRS, tree_id=4, src="sw", dst="r", config=config,
                include_end=False, seq_start=seq_start,
            )
        )
        assert fast == slow
        for built, reference in zip(fast, slow):
            assert _observables(built, config) == _observables(reference, config)

    def test_fast_data_packets_leave_seq_overflow_to_packetize(self):
        config = self.CONFIGS["fixed"]
        assert (
            fast_data_packets(
                self.PAIRS, tree_id=4, src="sw", dst="r", config=config,
                seq_start=2**32 - 1,
            )
            is None
        )
        with pytest.raises(PacketFormatError, match="32-bit"):
            list(
                packetize_pairs(
                    self.PAIRS, tree_id=4, src="sw", dst="r", config=config,
                    seq_start=2**32 - 1,
                )
            )

    @pytest.mark.parametrize("kind", ["fixed", "variable"])
    @pytest.mark.parametrize("old_seq", [None, 5])
    def test_restamped_equals_replace(self, kind, old_seq):
        config = self.CONFIGS[kind]
        originals = list(
            packetize_pairs(
                self.PAIRS, tree_id=4, src="m", dst="r", config=config, seq_start=old_seq
            )
        )
        for warm in (False, True):
            for offset, packet in enumerate(originals):
                if warm:  # the copy inherits caches: fill them first
                    packet.header_sizes()
                    packet.vector_pairs()
                    object.__setattr__(packet, "ecn", True)
                restamped = packet.restamped(9, 100 + offset)
                reference = replace(packet, tree_id=9, seq=100 + offset)
                assert restamped == reference
                assert restamped.ecn is warm
                assert _observables(restamped, config) == _observables(reference, config)
                # The original is untouched.
                assert (packet.tree_id, packet.seq) == (
                    4, None if old_seq is None else old_seq + offset,
                )

    def test_restamped_validates_like_the_constructor(self):
        packet = end_packet(tree_id=1, src="m", dst="r")
        assert packet.restamped(1, 2**32 - 1).seq == 2**32 - 1
        for tree_id, seq in ((1, 2**32), (1, -1), (-1, 0)):
            with pytest.raises(PacketFormatError):
                packet.restamped(tree_id, seq)
            with pytest.raises(PacketFormatError):
                replace(packet, tree_id=tree_id, seq=seq)

"""Unit and property tests for the DAIET wire format."""

from __future__ import annotations

import gc
import random
import tracemalloc
import zlib
from dataclasses import replace

import pytest
import test_vector_kernel_equivalence as kernel_harness
from daiet_codec import decode, encode
from hypothesis import given, settings, strategies as st

from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import PacketFormatError
from repro.core.functions import SUM, aggregate_pairs
from repro.core import packet as packet_module
from repro.core.packet import (
    DaietAck,
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    VALUE_LIMIT,
    VALUE_MIN,
    SeenWindow,
    end_packet,
    packetize_pairs,
)
from repro.dataplane import interning
from repro.netsim.devices import Host, SwitchDevice, packet_wire_bytes
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import leaf_spine, single_rack

np = pytest.importorskip("numpy")

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
        assert len(packet.pairs) == 1
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

    @pytest.mark.parametrize("key", [5, 2.5, bytearray(b"ab"), ("a",)])
    def test_a_key_that_is_not_str_or_bytes_is_refused(self, key):
        with pytest.raises(PacketFormatError, match="keys are str or bytes"):
            DaietPacket(tree_id=1, src="a", dst="b", pairs=(("ok", 1), (key, 1)))

    @pytest.mark.parametrize("reliability", [False, True])
    def test_send_pairs_refuses_an_int_key(self, reliability):
        # An int key used to be framed as bytes(5), five NUL bytes, and the
        # reducer reported {7: 2, 5: 4}. Nothing of the partition is sent.
        system = DaietSystem.single_rack(3, DaietConfig(reliability=reliability))
        system.install_job(mappers=["h0", "h1"], reducers=["h2"])
        with pytest.raises(PacketFormatError, match="keys are str or bytes"):
            system.send_pairs("h0", "h2", [(5, 1), (7, 2)])
        system.send_pairs("h0", "h2", [("a", 1)])
        system.send_pairs("h1", "h2", [("a", 2), (b"b", 3)])
        system.run()
        assert system.receiver("h2").result() == {"a": 3, b"b": 3}

    def test_every_header_is_parsed(self):
        packet = DaietPacket(tree_id=7, src="a", dst="b", pairs=(("k", 1), ("q", 2)))
        assert packet.parse_depth_bytes() == packet.wire_bytes()

    def test_value_overflow_detected_at_construction(self):
        # The constructor refuses what the encoder could not write; the
        # field's edges encode and decode exactly.
        with pytest.raises(PacketFormatError, match="value 1099511627776 does not fit in 4 bytes"):
            DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 2**40),))
        edges = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 2**31 - 1), ("q", -(2**31))))
        assert decode(encode(edges), src="a", dst="b").pairs == edges.pairs


class TestEncodeDecode:
    def test_simple_round_trip(self):
        packet = DaietPacket(tree_id=3, src="m1", dst="r2", pairs=(("hello", 42), ("world", -7)))
        decoded = decode(encode(packet), src="m1", dst="r2")
        assert decoded.tree_id == 3
        assert decoded.pairs == (("hello", 42), ("world", -7))
        assert decoded.packet_type is DaietPacketType.DATA

    def test_truncated_payload_rejected(self):
        packet = DaietPacket(tree_id=3, src="a", dst="b", pairs=(("abc", 1),))
        data = encode(packet)
        with pytest.raises(PacketFormatError):
            decode(data[:-3], src="a", dst="b")
        with pytest.raises(PacketFormatError):
            decode(data[:4], src="a", dst="b")

    @settings(max_examples=60)
    @given(pairs=pairs_strategy, tree_id=st.integers(0, 2**31 - 1))
    def test_round_trip_property_fixed_keys(self, pairs, tree_id):
        packet = DaietPacket(tree_id=tree_id, src="a", dst="b", pairs=tuple(pairs))
        decoded = decode(encode(packet), src="a", dst="b")
        assert decoded.pairs == tuple(pairs)
        assert decoded.tree_id == tree_id

    def test_nul_suffixed_keys_round_trip(self):
        # Keys that legitimately end in NUL bytes must survive the fixed-width
        # padding: ``rstrip`` alone would corrupt them.
        pairs = (("ab\x00", 1), ("c\x00\x00", 2), ("\x00", 3), ("plain", 4))
        packet = DaietPacket(tree_id=1, src="a", dst="b", pairs=pairs)
        decoded = decode(encode(packet), src="a", dst="b")
        assert decoded.pairs == pairs

    @settings(max_examples=80)
    @given(
        pairs=binary_pairs_strategy,
        seq=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_round_trip_property_binary_and_nul_keys(self, pairs, seq):
        packet = DaietPacket(tree_id=2, src="a", dst="b", pairs=tuple(pairs), seq=seq)
        decoded = decode(encode(packet), src="a", dst="b")
        assert decoded.pairs == tuple(pairs)
        assert decoded.seq == seq

    @settings(max_examples=80)
    @given(
        pairs=binary_pairs_strategy,
        seq=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_encode_length_matches_payload_bytes(self, pairs, seq):
        packet = DaietPacket(tree_id=2, src="a", dst="b", pairs=tuple(pairs), seq=seq)
        assert len(encode(packet)) == packet.payload_bytes()

    def test_seq_round_trip_and_sizes(self):
        plain = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 1),))
        sequenced = DaietPacket(tree_id=1, src="a", dst="b", pairs=(("k", 1),), seq=7)
        assert sequenced.payload_bytes() == plain.payload_bytes() + 4
        decoded = decode(encode(sequenced), src="a", dst="b")
        assert decoded.seq == 7
        assert decode(encode(plain), src="a", dst="b").seq is None


class TestReliabilityPrimitives:
    def test_seen_window_tracks_cumulative_and_gaps(self):
        window = SeenWindow()
        assert window.observe(0) and window.observe(2)
        assert window.cumulative == 1
        assert window.out_of_order
        assert not window.observe(2), "duplicate detected"
        assert window.observe(1)
        assert window.cumulative == 3 and not window.out_of_order

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
        assert window.take_ack() == (8, (9,))
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
        assert large.parse_depth_bytes() == large.wire_bytes()

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
        assert [len(p.pairs) for p in data_packets] == [3, 3, 2]
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
        assert all(len(p.pairs) <= DaietConfig().pairs_per_packet for p in packets)


def _vector_view(packet: DaietPacket):
    """``vector_pairs()`` with its array slices as lists, so views compare."""
    view = packet.vector_pairs()
    if view is None:
        return None
    kids, vals = view
    return kids.tolist(), vals.tolist()


def _loop_view(packet: DaietPacket):
    """The per-pair loop the columns replaced, kept as their reference."""
    if not packet.pairs:
        return None
    return (
        [interning.intern_key(key) for key, _value in packet.pairs],
        [value for _key, value in packet.pairs],
    )


def _fits_the_value_field(value) -> bool:
    """The value rule, restated: an exact int of 4 signed bytes."""
    return type(value) is int and -(2**31) <= value < 2**31


def _one_by_one(pairs, tree_id, src, dst, config, include_end=True, seq_start=None):
    """The packetizer's oracle: every packet through ``DaietPacket(...)``."""
    seq = seq_start
    per_packet = config.pairs_per_packet
    for start in range(0, len(pairs), per_packet):
        yield DaietPacket(
            tree_id=tree_id, src=src, dst=dst,
            pairs=tuple(pairs[start : start + per_packet]), config=config, seq=seq,
        )
        if seq is not None:
            seq += 1
    if include_end:
        yield DaietPacket(
            tree_id=tree_id, src=src, dst=dst, packet_type=DaietPacketType.END,
            config=config, seq=seq,
        )


def _drain(make):
    """``(packets built, (exception type, message) or None)`` of ``make()``'s packets.

    The packetizer raises before its window exists, the one-by-one oracle
    after yielding the packets it could build: the first error is the
    contract, the packets before it only the oracle's.
    """
    built = []
    try:
        for packet in make():
            built.append(packet)
    except Exception as exc:  # the twin must fail the same way, whatever way
        return built, (type(exc), str(exc))
    return built, None


def _observables(packet: DaietPacket, config: DaietConfig) -> dict:
    """Everything a packet can be asked, cached sizes included."""
    return {
        "fields": (
            packet.tree_id, packet.src, packet.dst, packet.packet_type,
            packet.pairs, packet.config, packet.seq, packet.ecn,
        ),
        "keylen": packet._keylen_needed,
        "payload_bytes": packet.payload_bytes(),
        "wire_bytes": packet.wire_bytes(),
        "parse_depth_bytes": packet.parse_depth_bytes(),
        "vector_pairs": _vector_view(packet),
        "encoded": encode(packet),
        "decoded": decode(encode(packet), packet.src, packet.dst, config),
    }


class TestPacketsBuiltOnce:
    """A packet stamped at construction, or re-stamped from its cached sizes,
    is the packet ``dataclasses.replace`` would rebuild and re-measure."""

    CONFIG = DaietConfig(pairs_per_packet=3)
    #: The default key width, and a wider one: the stamped sizes and the
    #: encoding follow the config's key width (a value is always 4 bytes).
    CONFIGS = {
        "default": CONFIG,
        "wide": DaietConfig(pairs_per_packet=3, key_width=24),
    }
    PAIRS = [("ant", 1), ("bee\x00", -2), ("cat", 3), ("dragonfly", 4), ("e", 2**31 - 1)]

    @pytest.mark.parametrize("kind", ["default", "wide"])
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

    @pytest.mark.parametrize("kind", ["default", "wide"])
    @pytest.mark.parametrize("seq_start", [None, 0, 2**32 - 2])
    def test_packetizer_equals_constructor(self, seq_start, kind):
        # PAIRS holds a NUL-suffixed key, so the whole partition is the
        # constructor's: the packets are the ones built one by one.
        config = self.CONFIGS[kind]
        built = list(
            packetize_pairs(
                self.PAIRS, tree_id=4, src="sw", dst="r", config=config,
                include_end=False, seq_start=seq_start,
            )
        )
        reference = list(
            _one_by_one(self.PAIRS, 4, "sw", "r", config, False, seq_start)
        )
        assert built == reference
        for packet, twin in zip(built, reference):
            assert _observables(packet, config) == _observables(twin, config)

    def test_packetizer_leaves_seq_overflow_to_the_constructor(self):
        config = self.CONFIG
        arguments = dict(tree_id=4, src="sw", dst="r", config=config, seq_start=2**32 - 1)
        built, error = _drain(lambda: packetize_pairs(self.PAIRS, **arguments))
        reference, reference_error = _drain(lambda: _one_by_one(self.PAIRS, **arguments))
        assert error == reference_error
        assert error[0] is PacketFormatError and "32-bit" in error[1]
        # The oracle built the first packet before failing; no window exists.
        assert [packet.seq for packet in reference] == [2**32 - 1]
        assert built == []

    @pytest.mark.parametrize("kind", ["default", "wide"])
    @pytest.mark.parametrize("old_seq", [None, 5])
    def test_restamped_equals_replace(self, old_seq, kind):
        config = self.CONFIGS[kind]
        originals = list(
            packetize_pairs(
                self.PAIRS, tree_id=4, src="m", dst="r", config=config, seq_start=old_seq
            )
        )
        for warm in (False, True):
            for offset, packet in enumerate(originals):
                if warm:  # the copy inherits caches: fill them first
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


#: Keys on both sides of everything the packetizer asks the intern pool:
#: ASCII and non-ASCII ``str``, ``bytes``, NUL-suffixed, exactly as wide as
#: the key field, and wider.
twin_key_strategy = st.one_of(
    key_strategy,
    st.text(
        alphabet=st.characters(min_codepoint=0x80, max_codepoint=0x2FF), min_size=1, max_size=9
    ),
    st.binary(max_size=17),
    key_strategy.map(lambda key: key[:15] + "\x00"),
    st.sampled_from(["k" * 16, "w" * 17, "é" * 8, "é" * 9]),
)
#: Values on both sides of what the 4-byte value field holds: the packetizer
#: must refuse what the constructor refuses, with the same error.
twin_value_strategy = st.one_of(
    value_strategy,
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([2**62 - 1, 1 - 2**62, 2**62, -(2**62), 2**63, -(2**63) - 1]),
)
TWIN_CONFIG = DaietConfig(pairs_per_packet=3)


def _wire_view(packet: DaietPacket):
    """What a packet says about its wire form; ``encode`` may refuse a value."""
    try:
        encoded = encode(packet)
    except PacketFormatError as exc:
        encoded = str(exc)
    return (
        packet.seq, packet.wire_bytes(), packet.payload_bytes(),
        packet.parse_depth_bytes(), encoded,
    )


def _assert_twins(pairs, config, **arguments):
    """``packetize_pairs`` against the same packets built one by one.

    The window's own arithmetic must agree with its packets, and a packet
    it built is the one it hands out again.
    """
    built, error = _drain(lambda: packetize_pairs(pairs, config=config, **arguments))
    reference, reference_error = _drain(lambda: _one_by_one(pairs, config=config, **arguments))
    assert error == reference_error
    if error is not None:
        assert built == []
        return built, error
    assert built == reference
    window = packetize_pairs(pairs, config=config, **arguments)
    assert window.sizes == [packet_wire_bytes(packet) for packet in window]
    assert window.payload_bytes() == sum(packet.payload_bytes() for packet in reference)
    assert all(window[i] is window[i] is packet for i, packet in enumerate(window))
    assert list(window[1:]) == reference[1:]
    assert [_wire_view(packet) for packet in built] == [
        _wire_view(packet) for packet in reference
    ]
    assert (
        [_vector_view(packet) for packet in built]
        == [_vector_view(packet) for packet in reference]
        == [_loop_view(packet) for packet in reference]
    )
    return built, error


class TestPacketizerTwin:
    """The bulk packetizer against its oracle, the validating constructor."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(st.tuples(twin_key_strategy, twin_value_strategy), max_size=14),
        seq_start=st.sampled_from([None, 0, 2**32 - 1, 2**32 - 3, 2**32 - 6]),
        include_end=st.booleans(),
    )
    def test_packets_views_and_errors_equal_the_constructors(
        self, pairs, seq_start, include_end
    ):
        _built, error = _assert_twins(
            pairs, TWIN_CONFIG, tree_id=3, src="m", dst="r",
            include_end=include_end, seq_start=seq_start,
        )
        if not all(_fits_the_value_field(value) for _key, value in pairs):
            # A value the field cannot hold never becomes a window.
            assert error is not None and error[0] is PacketFormatError

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(key_strategy, value_strategy), min_size=1, max_size=40),
        seq_start=st.sampled_from([None, 7]),
    )
    def test_partitions_the_pool_vouches_for(self, pairs, seq_start):
        # Every input here takes the bulk path, and every packet has a view.
        built, error = _assert_twins(
            pairs, TWIN_CONFIG, tree_id=3, src="m", dst="r", seq_start=seq_start
        )
        assert error is None
        assert all(packet.vector_pairs() is not None for packet in built[:-1])
        assert built[-1].vector_pairs() is None  # END carries no pairs

    @pytest.mark.parametrize(
        "pairs, arguments",
        [
            ([("a", 1), ("b", 2, 3)], {}),  # malformed pair
            ([("a", 1), ("b",)], {}),
            ([("a", 1), 7], {}),
            ([(None, 1)], {}),  # keys outside the pool's domain
            ([(("t",), 1)], {}),
            ([(["unhashable"], 1)], {}),
            ([(5, 1), ("a", 2)], {}),  # bytes(5): a legal five-NUL key
            ([("a", 1)], {"tree_id": -1}),
            ([], {"tree_id": -1}),
            ([("a", 1), ("b", 2**31)], {}),  # values the field cannot hold
            ([("a", 1)] * 4 + [("b", -(2**31) - 1)], {}),
            ([("a", 2.5)], {}),
            ([("a", 1), ("b", True)], {}),
            ([("a", 2**63)], {}),  # past int64 too
            ([("w" * 17, 2.5)], {}),  # the key is refused first
            ([("a", 1)] * 7, {"seq_start": -1}),
            ([("a", 1)] * 7, {"seq_start": 2**32 - 2}),
            ([], {"seq_start": 2**32}),
        ],
    )
    def test_what_the_pool_cannot_vouch_for_is_the_constructors(self, pairs, arguments):
        arguments = {"tree_id": 3, "src": "m", "dst": "r", **arguments}
        _assert_twins(pairs, DaietConfig(pairs_per_packet=3), **arguments)

    def test_values_at_the_edges_of_the_field_are_held_exactly(self):
        # 40 values at both edges of the 4-byte field: the value column holds
        # them exactly; one step past either edge is refused before a window
        # exists.
        config = DaietConfig(pairs_per_packet=7)
        assert (VALUE_MIN, VALUE_LIMIT) == (-(2**31), 2**31)
        pairs = [(f"edge{i % 5}", VALUE_LIMIT - 1 if i % 3 else VALUE_MIN) for i in range(40)]
        built, error = _assert_twins(pairs, config, tree_id=3, src="m", dst="r")
        assert error is None
        assert [
            value for packet in built[:-1] for value in packet.vector_pairs()[1].tolist()
        ] == [value for _key, value in pairs]
        for past in (VALUE_LIMIT, VALUE_MIN - 1):
            _built, error = _assert_twins(
                [*pairs, ("edge0", past)], config, tree_id=3, src="m", dst="r"
            )
            assert error == (PacketFormatError, f"value {past} does not fit in 4 bytes")

    def test_one_pair_outside_the_field_refuses_the_whole_partition(self):
        # One value the field cannot hold refuses the whole partition, at
        # its first offending pair in pair order: no packet of it is sent.
        config = DaietConfig(pairs_per_packet=2)
        pairs = [("a", 1), ("b", 2), ("c", 3.5), ("d", 4), ("e", True), ("f", 6), ("g", 7)]
        built, error = _assert_twins(pairs, config, tree_id=3, src="m", dst="r")
        assert built == []
        assert error == (PacketFormatError, "value 3.5 is a float; values are int")


class TestPacketWindow:
    """The packetizer's window against the packets the constructor builds."""

    @settings(max_examples=150, deadline=None)
    @given(
        pairs=st.lists(st.tuples(twin_key_strategy, twin_value_strategy), max_size=14),
        edge=st.one_of(st.none(), st.sampled_from([-1, 0, 1])),
        include_end=st.booleans(),
    )
    def test_window_is_the_constructors_packets(self, pairs, edge, include_end):
        # ``edge`` puts the last DATA packet's number at the top of its field
        # (0), below it or one past it; the END, when there is one, takes
        # the number after that.
        count = -(-len(pairs) // TWIN_CONFIG.pairs_per_packet)
        seq_start = None if edge is None else 2**32 - count + edge
        built, error = _assert_twins(
            pairs, TWIN_CONFIG, tree_id=3, src="m", dst="r",
            include_end=include_end, seq_start=seq_start,
        )
        if error is None:
            window = packetize_pairs(
                pairs, tree_id=3, src="m", dst="r", config=TWIN_CONFIG,
                include_end=include_end, seq_start=seq_start,
            )
            for lo in range(len(built)):
                view = window[lo:]
                assert view.seq_start == (None if seq_start is None else seq_start + lo)
                assert list(view) == built[lo:]
                assert view[0] is window[lo]

    def test_a_built_packet_carries_the_callers_pairs_from_the_pool(self, monkeypatch):
        # A vouched window keeps columns, not the caller's pairs: a packet
        # built from it holds no pairs until one reads them, and then reads
        # its own slice back, keys from the intern pool (equal to the
        # caller's, of the same type) and values as ints.
        keys = ["pool-a", b"pool-b", "pool-\u00e9", b"pool-\xff"]
        values = [0, -1, 2**31 - 1, -(2**31), 7, 1, 2, 3, 4, 5]
        pairs = [
            ("".join(["pool-", "a"]) if i % 4 == 0 else keys[i % 4], value)
            for i, value in enumerate(values)
        ]
        window = packetize_pairs(
            pairs, tree_id=1, src="m", dst="r", config=DaietConfig(pairs_per_packet=4)
        )
        read = []
        keys_of = interning.keys_of
        monkeypatch.setattr(
            interning, "keys_of", lambda kids: read.append(len(kids)) or keys_of(kids)
        )
        built = window[1]
        assert read == []  # building the packet reads no key
        assert built.pairs == tuple(pairs[4:8])
        assert read == [4]  # its own slice, not the window's ten pairs
        assert built.pairs is built.pairs and read == [4]  # read back once
        packets = list(window)[:-1]
        carried = [pair for packet in packets for pair in packet.pairs]
        assert carried == pairs
        assert [tuple(map(type, pair)) for pair in carried] == [
            tuple(map(type, pair)) for pair in pairs
        ]
        pooled = keys_of(window.columns.kids.tolist())
        assert all(key is held for (key, _value), held in zip(carried, pooled))
        # The caller passed three "pool-a" objects; the packets carry one.
        assert pairs[4][0] is not pairs[0][0] and carried[4][0] is carried[0][0]

    def test_a_built_packet_holds_no_pairs_until_they_are_read(self, monkeypatch):
        # What the kernel, the budget check and the reducer read of a
        # window's packet is its extent of the columns; equality, hash,
        # repr and replace read the pairs, which are then built once and
        # are the constructor-built twin's.
        config = DaietConfig(pairs_per_packet=4)
        pairs = [(f"lazy-{i % 5}", i - 4) for i in range(10)] + [(b"lazy-b", 2**31 - 1)]
        window = packetize_pairs(pairs, tree_id=2, src="m", dst="r", config=config, seq_start=9)
        read = []
        keys_of = interning.keys_of
        monkeypatch.setattr(
            interning, "keys_of", lambda kids: read.append(list(kids)) or keys_of(kids)
        )
        packets = [window[j] for j in range(3)]
        restamped = packets[1].restamped(7, 40)
        kids, vals, lo, hi = packets[2].pair_columns()
        assert (kids is window.columns.kids, vals is window.columns.vals, lo, hi) == (
            True, True, 8, 11
        )
        assert [packet.op_cost() for packet in packets] == [7, 7, 6]
        assert [len(packet.vector_pairs()[0]) for packet in (*packets, restamped)] == [4, 4, 3, 4]
        assert read == []
        twins = [
            DaietPacket(2, "m", "r", DaietPacketType.DATA, tuple(pairs[at : at + 4]), config, 9 + j)
            for j, at in enumerate(range(0, 11, 4))
        ]
        assert packets[2] == twins[2]
        assert read == [window.columns.kids[8:11].tolist()]  # exactly its slice
        assert hash(packets[0]) == hash(twins[0]) and repr(packets[1]) == repr(twins[1])
        assert len(read) == 3
        assert replace(packets[1], seq=3) == replace(twins[1], seq=3)
        assert restamped.pairs == twins[1].pairs and len(read) == 4  # its own read
        assert [packet.pairs for packet in packets] == [twin.pairs for twin in twins]
        assert len(read) == 4  # each packet read its keys once

    def test_a_view_shares_the_packets_built(self):
        window = packetize_pairs(
            [(f"k{i}", i) for i in range(10)], tree_id=1, src="m", dst="r",
            config=DaietConfig(pairs_per_packet=3), seq_start=4,
        )
        view = window[1:3]
        assert (len(view), view.sizes, view.first) == (2, window.sizes[1:3], 1)
        assert [packet.seq for packet in view] == [5, 6]
        assert window[2] is view[1]
        assert window[:] is window
        with pytest.raises(IndexError):
            view[2]
        with pytest.raises(ValueError):
            window[::2]


def _vocabulary_partition(prefix: str, pairs: int, vocabulary: int):
    """A wordcount-shaped partition over words no other test interns.

    The intern pool is process-global and append-only (ROADMAP item 4), and
    every tree built later in the process sizes a memo by it, so these tests
    keep their vocabularies small: the later perf floors pay for every key.
    """
    rng = random.Random(2017)
    words = [f"{prefix}{i:05d}" for i in range(vocabulary)]
    return [(rng.choice(words), 1) for _ in range(pairs)]


class TestPacketizerCounts:
    """What packetizing costs, as counts: objects kept, columns built, keys
    measured. Wall-clock is the benchmark's business."""

    CONFIG = DaietConfig(pairs_per_packet=10)

    def test_a_packet_with_a_view_is_one_tracked_object(self):
        pairs = _vocabulary_partition("tracked-", pairs=60_000, vocabulary=16)
        gc.collect()
        before = len(gc.get_objects())
        packets = list(packetize_pairs(pairs, tree_id=1, src="m", dst="r", config=self.CONFIG))
        assert all(packet.vector_pairs() is not None for packet in packets[:-1])
        gc.collect()
        per_packet = (len(gc.get_objects()) - before) / len(packets)
        # 4.00 when every packet kept a tuple and two lists of its own.
        assert per_packet <= 1.5

    def test_values_are_checked_once_per_host_window(self, monkeypatch):
        # The value column is built and checked once, at send, for each
        # mapper window; a switch's flushes are cut from the register
        # kernel's int64 columns (a range test, no pair walk), so they add
        # no value-column build.
        built = []
        value_column = packet_module._value_column

        def counting_value_column(values):
            built.append(len(values))
            return value_column(values)

        monkeypatch.setattr(packet_module, "_value_column", counting_value_column)
        partitions = [[(f"w{(i * 7 + m) % 50}", 1) for i in range(400)] for m in range(3)]

        def run_round(**config) -> DaietSystem:
            system = DaietSystem.single_rack(
                4, DaietConfig(register_slots=16, pairs_per_packet=4, **config)
            )
            system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
            for mapper, pairs in zip(("h0", "h1", "h2"), partitions):
                system.send_pairs(mapper, "h3", pairs)
            system.run()
            assert system.receiver("h3").result() == aggregate_pairs(
                [pair for pairs in partitions for pair in pairs], SUM
            )
            return system

        # Sequenced or not: one check per mapper window; the switch's
        # spillover and final flushes (hundreds of small partitions, sequenced
        # on the reliable round) build none.
        for config in (dict(reliability=True, retransmit_timeout=1e-4), {}):
            built.clear()
            system = run_round(**config)
            state = system.engine("tor").tree(system.tree_for("h3").tree_id)
            assert state.counters.spillover_flushes > 0
            assert built == [400, 400, 400]

    @pytest.mark.parametrize("lossy", [False, True])
    def test_host_windows_build_packets_only_for_per_packet_consumers(
        self, lossy, monkeypatch
    ):
        # A mapper's DATA packets ride their window from the packetizer to
        # the register kernel. What is built: every packet a switch flushes
        # to the reducer host (a per-packet consumer), every END, and on a
        # lossy round each mapper DATA packet a retransmission resends.
        built = []
        assemble = packet_module._assemble
        construct = DaietPacket.__init__

        def counting_assemble(*args, **kwargs):
            packet = assemble(*args, **kwargs)
            built.append(packet)
            return packet

        def counting_construct(self, *args, **kwargs):
            construct(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(packet_module, "_assemble", counting_assemble)
        monkeypatch.setattr(DaietPacket, "__init__", counting_construct)
        mappers = ["h0", "h1", "h2", "h3"]
        topology = single_rack(5)
        if lossy:
            for link in topology.links:
                link.loss_rate = 0.02
        config = DaietConfig(
            register_slots=16, pairs_per_packet=4, reliability=lossy, retransmit_timeout=1e-4
        )
        system = DaietSystem(topology, config, SimulatorConfig(loss_seed=5))
        system.install_job(mappers=mappers, reducers=["h4"])
        resent: list[DaietPacket] = []
        for mapper in mappers if lossy else ():
            engine = system.agent(mapper).sender(system.tree_for("h4").tree_id)._engine
            emit = engine._emit

            def spy(slots, retransmit, emit=emit):
                if retransmit:
                    resent.extend(source[index] for source, index in slots)
                emit(slots, retransmit)

            engine._emit = spy
        partitions = [[(f"c{(i * 7 + m) % 40}", 1) for i in range(400)] for m in range(4)]
        for mapper, pairs in zip(mappers, partitions):
            system.send_pairs(mapper, "h4", pairs)
        system.run()
        assert system.receiver("h4").result() == aggregate_pairs(
            [pair for pairs in partitions for pair in pairs], SUM
        )
        flushed = system.engine("tor").tree(system.tree_for("h4").tree_id).counters
        assert flushed.spillover_flushes > 0
        mapper_data = {
            id(packet) for packet in resent if packet.packet_type is DaietPacketType.DATA
        }
        assert len(mapper_data) > 0 if lossy else not resent
        assert len(set(map(id, built))) == len(built)  # each packet built once
        assert len(built) == flushed.packets_emitted + len(mappers) + len(mapper_data)

    def test_switch_flushes_build_packets_only_for_the_reducer(self, monkeypatch):
        # Lossless leaf-spine: a leaf's flush rides to the spine's register
        # kernel as one window, like a mapper's partition. What is built:
        # every END, every flush packet a switch puts on the link as its own
        # queue entry (a spillover flush, a one-packet flush) and the flush
        # packets the reducer host receives. No DATA packet of a flush that
        # crossed a switch-to-switch link as a window is built.
        built = []
        assemble = packet_module._assemble
        construct = DaietPacket.__init__

        def counting_assemble(*args, **kwargs):
            packet = assemble(*args, **kwargs)
            built.append(packet)
            return packet

        def counting_construct(self, *args, **kwargs):
            construct(self, *args, **kwargs)
            built.append(self)

        windows, alone = [], []
        count_emitted = SwitchDevice.count_emitted

        def spy_emitted(device, out):
            for _port, item in out:
                (windows if type(item) is PacketWindow else alone).append(item)
            return count_emitted(device, out)

        monkeypatch.setattr(packet_module, "_assemble", counting_assemble)
        monkeypatch.setattr(DaietPacket, "__init__", counting_construct)
        monkeypatch.setattr(SwitchDevice, "count_emitted", spy_emitted)
        delivered_to_reducer = []
        host_deliver = Host.deliver

        def spy_delivered(host, packet, nbytes):
            if host.name == "h8":
                delivered_to_reducer.append(packet)
            host_deliver(host, packet, nbytes)

        monkeypatch.setattr(Host, "deliver", spy_delivered)
        mappers = [f"h{i}" for i in range(8)]
        config = DaietConfig(
            register_slots=16, pairs_per_packet=4, reliability=True, retransmit_timeout=1.0
        )
        system = DaietSystem(leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3), config)
        system.install_job(mappers=mappers, reducers=["h8"])
        partitions = [[(f"s{(i * 7 + m) % 40}", 1) for i in range(400)] for m in range(8)]
        for mapper, pairs in zip(mappers, partitions):
            system.send_pairs(mapper, "h8", pairs)
        system.run()
        assert system.receiver("h8").result() == aggregate_pairs(
            [pair for pairs in partitions for pair in pairs], SUM
        )
        assert system.reliability_stats()["h8"]["pulls_sent"] == 0
        tree = system.tree_for("h8")
        to_switch = [w for w in windows if tree.node(tree.node(w.src).parent).is_switch]
        assert any(len(w) > 2 for w in to_switch)  # the leaves' final flushes
        assert not any(
            packet.packet_type is DaietPacketType.DATA
            for window in to_switch
            for packet in window.built.values()
        )
        assert all(len(window) > 1 for window in windows)
        ends = [packet for packet in built if packet.packet_type is DaietPacketType.END]
        alone_data = {
            id(p) for p in alone if type(p) is DaietPacket and p.packet_type is DaietPacketType.DATA
        }
        delivered = [
            packet
            for packet in delivered_to_reducer
            if type(packet) is DaietPacket and packet.packet_type is DaietPacketType.DATA
        ]
        assert alone_data and delivered
        assert len(set(map(id, built))) == len(built)  # each packet built once
        assert len(built) == len(ends) + len(alone_data) + len(
            [packet for packet in delivered if id(packet) not in alone_data]
        )

    def test_a_collision_heavy_round_interns_once_per_final_flush(self, monkeypatch):
        # Lossless rack, 16-slot registers against a 300-word vocabulary:
        # hundreds of spillover flushes, all cut by the register kernel
        # from kids. Once the partitions are packetized, the round calls
        # the pool's interning entry point at most once per final flush,
        # not once per spillover flush (the switch's bucket holds kids, so
        # its final flush interns nothing either).
        calls = []
        intern_keys = interning.intern_keys
        monkeypatch.setattr(
            interning, "intern_keys", lambda keys: calls.append(len(keys)) or intern_keys(keys)
        )
        mappers = ["h0", "h1", "h2", "h3"]
        system = DaietSystem.single_rack(5, DaietConfig(register_slots=16, pairs_per_packet=4))
        system.install_job(mappers=mappers, reducers=["h4"])
        partitions = [[(f"heavy{(i * 7 + m) % 300}", 1) for i in range(1_500)] for m in range(4)]
        for mapper, pairs in zip(mappers, partitions):
            system.send_pairs(mapper, "h4", pairs)
        calls.clear()
        system.run()
        assert system.receiver("h4").result() == aggregate_pairs(
            [pair for pairs in partitions for pair in pairs], SUM
        )
        counters = system.engine("tor").tree(system.tree_for("h4").tree_id).counters
        assert counters.spillover_flushes > 100
        assert len(calls) <= counters.final_flushes == 1

    def test_keys_are_measured_once_per_distinct_key(self, monkeypatch):
        # The benchmark's 7.5 pairs per word, at a quarter of its size.
        pairs = _vocabulary_partition("measured-", pairs=15_000, vocabulary=2_000)
        distinct = len({key for key, _value in pairs})
        arguments = dict(tree_id=1, src="m", dst="r", config=self.CONFIG)
        before = interning.pool_size()
        first = list(packetize_pairs(pairs, **arguments))
        assert interning.pool_size() == before + distinct
        # One record for the whole partition: the bulk path ran.
        assert first[0].vector_pairs()[0].base is first[-2].vector_pairs()[0].base
        # The second time no key is encoded or hashed (none reaches
        # intern_key), and the widest-key and NUL answers are array lookups
        # in the pool's metadata, which stays where it was.
        metadata = interning._kid_enc_len, interning._kid_ends_nul
        encoded = []
        intern_key = interning.intern_key
        monkeypatch.setattr(
            interning, "intern_key", lambda key: encoded.append(key) or intern_key(key)
        )
        second = list(packetize_pairs(pairs, **arguments))
        assert encoded == []
        assert interning.pool_size() == before + distinct
        assert interning._kid_enc_len is metadata[0]
        assert interning._kid_ends_nul is metadata[1]
        assert second == first

    def test_only_unseen_keys_reach_intern_key(self, monkeypatch):
        # A partition that mixes keys the pool holds with new ones encodes
        # and hashes only the new ones, each once, in first-seen order.
        seen = [f"unseen-old{i}" for i in range(30)]
        interning.intern_keys(seen)
        fresh = [f"unseen-new{i}" for i in range(12)]
        keys = [key for pair in zip(seen, fresh * 3) for key in pair] + seen[::-1]
        encoded = []
        intern_key = interning.intern_key
        monkeypatch.setattr(
            interning, "intern_key", lambda key: encoded.append(key) or intern_key(key)
        )
        before = interning.pool_size()
        kids = interning.intern_keys(keys)[0]
        assert encoded == fresh
        assert interning.pool_size() == before + len(fresh)
        assert interning.keys_of(kids.tolist()) == keys

    def test_a_window_and_its_plan_keep_about_four_bytes_a_column_a_pair(self):
        # The benchmark's partition size and packet size. The window keeps
        # the partition's kid and value columns, four bytes a pair each, and
        # per packet a size; the plan per packet its extent and its ledger
        # entry. No pair list and no per-item Python list: 30.7 bytes a pair
        # when the window kept the caller's pairs beside int64 columns and
        # the plan its byte ledger as a list of ints.
        pairs = _vocabulary_partition("kept-", pairs=60_000, vocabulary=16)
        interning.intern_keys([key for key, _value in pairs])
        tracemalloc.start()
        try:
            window = packetize_pairs(pairs, tree_id=1, src="m", dst="r", config=self.CONFIG)
            plan = window.burst_plan()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan) == 6_001
        assert kept / len(pairs) <= 12
        assert window.columns.kids.dtype == window.columns.vals.dtype == np.int32

    def test_the_pool_metadata_grows_by_doubling(self, monkeypatch):
        # On a pool of its own (the process's pool is append-only and every
        # tree sizes a memo by it): the per-kid CRC, width and NUL arrays
        # are reallocated only when the pool outgrows them, doubling, and
        # keep what they held; intern_keys and crcs_of answer from them.
        monkeypatch.setattr(interning, "_key_to_kid", {})
        monkeypatch.setattr(interning, "_kid_key", [])
        monkeypatch.setattr(interning, "_kid_crc", np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(interning, "_kid_enc_len", np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(interning, "_kid_ends_nul", np.zeros(4, dtype=bool))
        capacities = [4]
        keys = []
        for batch in range(10):
            last = f"g{batch}-nul\x00" if batch % 2 == 0 else f"g{batch}-end"
            fresh = [f"g{batch}-" + "x" * i for i in range(9)] + [last]
            for key in fresh:
                interning.intern_key(key)
                if len(interning._kid_enc_len) != capacities[-1]:
                    capacities.append(len(interning._kid_enc_len))
            kids, widest, any_nul = interning.intern_keys(fresh)
            keys += fresh
            assert kids.tolist() == list(range(len(keys) - 10, len(keys)))
            assert (widest, any_nul) == (11, batch % 2 == 0)
        assert capacities == [4, 8, 16, 32, 64, 128]
        assert len(interning._kid_ends_nul) == len(interning._kid_crc) == 128
        crcs = [zlib.crc32(key.encode()) for key in keys]
        assert interning.crcs_of(np.arange(100)).tolist() == crcs
        assert interning._kid_enc_len[:100].tolist() == [len(key) for key in keys]
        assert interning._kid_ends_nul[:100].tolist() == [key.endswith("\x00") for key in keys]
        assert interning.intern_keys(keys[10:20])[1:] == (11, False)
        assert interning.intern_keys(keys[5:15])[1:] == (11, True)

    def test_a_partition_packetizes_the_same_after_the_pool_grew(self):
        # In miniature, the regression ROADMAP item 4 wants at system level:
        # the same input twice in one process, other keys interned in between.
        config = DaietConfig(register_slots=8, pairs_per_packet=3)
        rng = random.Random(4)
        pairs = [(f"again{rng.randrange(30)}", rng.randrange(-9, 9)) for _ in range(120)]
        first = kernel_harness.data_packets(pairs, config)
        fast_first = kernel_harness.make_engine(config)
        out_first = kernel_harness.feed_fast(fast_first, [first])
        before = interning.pool_size()
        kernel_harness.data_packets([(f"unrelated{i}", i) for i in range(500)], config)
        assert interning.pool_size() == before + 500
        second = kernel_harness.data_packets(pairs, config)
        assert list(second) == list(first)
        assert [encode(packet) for packet in second] == [encode(packet) for packet in first]
        assert [_vector_view(packet) for packet in second] == [
            _vector_view(packet) for packet in first
        ]
        fast_second, slow = kernel_harness.make_engine(config), kernel_harness.make_engine(config)
        assert kernel_harness.feed_fast(fast_second, [second]) == out_first
        assert kernel_harness.feed_slow(slow, [second]) == out_first
        kernel_harness.assert_twins_identical(fast_first, slow)
        kernel_harness.assert_twins_identical(fast_second, slow)


#: Values the 4-byte value field cannot carry, one per way of not fitting.
UNCARRIED = [2**40, -(2**31) - 1, 2.5, True]


class TestEverySenderChecksTheValueField:
    """A value the header cannot carry is refused where it would be framed."""

    @staticmethod
    def _rack(reliability: bool) -> DaietSystem:
        system = DaietSystem.single_rack(num_hosts=3, config=DaietConfig(reliability=reliability))
        system.install_job(mappers=["h0", "h1"], reducers=["h2"])
        return system

    @pytest.mark.parametrize("reliability", [False, True])
    @pytest.mark.parametrize("value", UNCARRIED, ids=repr)
    def test_send_pairs_refuses_and_sends_nothing(self, reliability, value):
        system = self._rack(reliability)
        with pytest.raises(PacketFormatError, match="value"):
            system.send_pairs("h0", "h2", [("ok", 1), ("a", value)])
        # Refused before framing: no sequence number taken, nothing injected.
        if reliability:
            channel = system.agent("h0").sender(system.tree_for("h2").tree_id)
            assert channel._next_seq == 0
        assert system.run() == 0
        assert system.simulator.stats.total_link_packets() == 0
        assert all(
            stats["packets_sent"] == 0 for stats in system.reliability_stats().values()
        )

    @pytest.mark.parametrize("reliability", [False, True])
    def test_the_field_edges_arrive_exact(self, reliability):
        system = self._rack(reliability)
        system.send_pairs("h0", "h2", [("top", 2**31 - 1), ("bottom", -(2**31))])
        system.send_pairs("h1", "h2", [("other", 1)])
        system.run()
        assert system.receiver("h2").result() == {
            "top": 2**31 - 1, "bottom": -(2**31), "other": 1,
        }

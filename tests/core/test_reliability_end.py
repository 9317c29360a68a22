"""END-packet edge cases and the engine side of the reliability protocol."""

from __future__ import annotations

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.packet import DaietAck, DaietPacket, DaietPacketType, end_packet


def make_engine(
    num_children: int = 1,
    reliability: bool = False,
    ack_window: int = 8,
    slots: int = 128,
) -> tuple[DaietAggregationEngine, DaietConfig]:
    config = DaietConfig(
        register_slots=slots,
        reliability=reliability,
        ack_window=ack_window,
    )
    engine = DaietAggregationEngine("sw0")
    engine.configure_tree(
        tree_id=1,
        function="sum",
        num_children=num_children,
        egress_port=9,
        next_hop_dst="r0",
        config=config,
        child_ports={"m0": 3, "m1": 4},
    )
    return engine, config


def data(pairs, config, src="m0", seq=None) -> DaietPacket:
    return DaietPacket(
        tree_id=1, src=src, dst="r0", pairs=tuple(pairs), config=config, seq=seq
    )


def flushed_pairs(emissions) -> dict[str, int]:
    result: dict[str, int] = {}
    for _port, packet in emissions:
        if isinstance(packet, DaietPacket):
            for key, value in packet.pairs:
                result[key] = result.get(key, 0) + value
    return result


class TestEndEdgeCases:
    def test_duplicate_end_idempotent_by_default(self):
        # A duplicated END from the same child never double-decrements or
        # flushes a partial aggregate.
        engine, config = make_engine(num_children=2)
        engine.handle_packet(data([("k", 1)], config, src="m0"))
        assert engine.handle_packet(end_packet(1, "m0", "r0", config)) == []
        assert engine.handle_packet(end_packet(1, "m0", "r0", config)) == []
        out = engine.handle_packet(end_packet(1, "m1", "r0", config))
        assert flushed_pairs(out) == {"k": 1}

    def test_end_before_any_data(self):
        engine, config = make_engine(num_children=1)
        out = engine.handle_packet(end_packet(1, "m0", "r0", config))
        types = [p.packet_type for _port, p in out]
        assert types == [DaietPacketType.END], "empty partition still ENDs"

    def test_end_after_rearm_starts_next_round(self):
        engine, config = make_engine(num_children=1)
        engine.handle_packet(data([("k", 1)], config))
        first = engine.handle_packet(end_packet(1, "m0", "r0", config))
        assert flushed_pairs(first) == {"k": 1}
        engine.handle_packet(data([("k", 10)], config))
        second = engine.handle_packet(end_packet(1, "m0", "r0", config))
        assert flushed_pairs(second) == {"k": 10}

    def test_extra_source_end_counts_towards_next_round(self):
        # Once a round flushed and re-armed, an END from a third source is a
        # next-round END: it decrements the fresh counter without flushing.
        engine, config = make_engine(num_children=2)
        engine.handle_packet(end_packet(1, "m0", "r0", config))
        engine.handle_packet(end_packet(1, "m1", "r0", config))
        assert engine.handle_packet(end_packet(1, "m2", "r0", config)) == []
        assert engine.tree(1).remaining_children == 1


class TestSequencedStreams:
    def test_duplicate_data_is_filtered_and_acked(self):
        engine, config = make_engine(num_children=1, reliability=True)
        engine.handle_packet(data([("k", 1)], config, seq=0))
        out = engine.handle_packet(data([("k", 1)], config, seq=0))
        state = engine.tree(1)
        assert state.counters.duplicate_packets == 1
        assert state.counters.pairs_received == 1, "duplicate never re-aggregated"
        acks = [p for _port, p in out if isinstance(p, DaietAck)]
        assert len(acks) == 1
        assert acks[0].cumulative == 1
        assert acks[0].dst == "m0"
        ports = [port for port, p in out if isinstance(p, DaietAck)]
        assert ports == [3], "ACK goes out on the child's port"

    def test_ack_cadence_every_ack_window_packets(self):
        engine, config = make_engine(num_children=1, reliability=True, ack_window=3)
        out = []
        for seq in range(6):
            out.extend(engine.handle_packet(data([(f"k{seq}", 1)], config, seq=seq)))
        acks = [p for _port, p in out if isinstance(p, DaietAck)]
        assert [a.cumulative for a in acks] == [3, 6]

    def test_end_is_stashed_until_gaps_fill(self):
        engine, config = make_engine(num_children=1, reliability=True)
        engine.handle_packet(data([("a", 1)], config, seq=0))
        # seq=1 lost; END (seq=2) arrives first: no flush yet.
        out = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=2,
            )
        )
        assert flushed_pairs(out) == {}
        assert engine.tree(1).remaining_children == 1
        # The ACK reports the hole via cumulative=1 with seq 2 SACKed.
        acks = [p for _port, p in out if isinstance(p, DaietAck)]
        assert acks and acks[0].cumulative == 1 and acks[0].sack == (2,)
        # The retransmitted seq=1 completes the stream and triggers the flush.
        out = engine.handle_packet(data([("b", 5)], config, seq=1))
        assert flushed_pairs(out) == {"a": 1, "b": 5}

    def test_flush_packets_are_buffered_and_pull_retransmits(self):
        engine, config = make_engine(num_children=1, reliability=True)
        engine.handle_packet(data([("k", 7)], config, seq=0))
        out = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=1,
            )
        )
        flushes = [p for _port, p in out if isinstance(p, DaietPacket)]
        assert all(p.seq is not None for p in flushes)
        state = engine.tree(1)
        assert len(state._sent.unacked) == len(flushes)
        # A pull ACK from the parent probes both ends of what is outstanding
        # (all of it, when that is two packets).
        pull = DaietAck(tree_id=1, src="r0", dst="sw0", cumulative=0, pull=True)
        resent = engine.handle_ack(pull)
        assert [p.seq for _port, p in resent] == [p.seq for p in flushes]
        assert state.counters.retransmitted_packets == len(flushes)
        # A cumulative ACK releases the buffer.
        done = DaietAck(tree_id=1, src="r0", dst="sw0", cumulative=len(flushes))
        assert engine.handle_ack(done) == []
        assert state._sent.unacked == {}

    def test_flushes_are_numbered_at_construction_across_rounds(self):
        """Spillover flushes and the final flush share one sequence space;
        each emission is the packet the validating constructor would build."""
        engine, config = make_engine(num_children=1, reliability=True, slots=2)
        emitted: list[DaietPacket] = []
        keys = [f"key{i}" for i in range(40)]
        for seq, start in enumerate(range(0, len(keys), 10)):
            out = engine.handle_packet(
                data([(k, 1) for k in keys[start : start + 10]], config, seq=seq)
            )
            emitted += [p for _port, p in out if isinstance(p, DaietPacket)]
        assert emitted, "two slots cannot hold forty keys: spillover must flush"
        out = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=4,
            )
        )
        emitted += [p for _port, p in out if isinstance(p, DaietPacket)]
        assert [p.seq for p in emitted] == list(range(len(emitted)))
        assert emitted[-1].packet_type is DaietPacketType.END
        state = engine.tree(1)
        assert list(state._sent.unacked) == list(range(len(emitted)))
        # Every flush is buffered as (window, index) slots, which give back
        # the very packet that went out.
        buffered = state._sent.unacked
        assert all(
            window[index] is p for p in emitted for window, index in [buffered[p.seq]]
        )
        assert flushed_pairs([(9, p) for p in emitted]) == {k: 1 for k in keys}
        for packet in emitted:
            rebuilt = DaietPacket(
                tree_id=1, src="sw0", dst="r0", packet_type=packet.packet_type,
                pairs=packet.pairs, config=config, seq=packet.seq,
            )
            assert packet == rebuilt
            assert packet.wire_bytes() == rebuilt.wire_bytes()
            assert packet.parse_depth_bytes() == rebuilt.parse_depth_bytes()
            assert packet.encode() == rebuilt.encode()

    def test_gap_fill_is_suppressed_until_progress(self):
        engine, config = make_engine(num_children=1, reliability=True)
        engine.handle_packet(data([("k", 7)], config, seq=0))
        out = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=1,
            )
        )
        flushes = [p for _port, p in out if isinstance(p, DaietPacket)]
        last = flushes[-1].seq
        # The parent SACKs the last flush packet: the holes are resent once...
        nack = DaietAck(tree_id=1, src="r0", dst="sw0", cumulative=0, sack=(last,))
        first = engine.handle_ack(nack)
        assert first, "holes below the SACK horizon must be retransmitted"
        # ...but an identical duplicate ACK does not resend them again.
        assert engine.handle_ack(nack) == []

    def test_pull_resends_the_proven_holes_and_both_ends_not_the_buffer(self):
        engine, config = make_engine(num_children=1, reliability=True)
        for seq in range(6):
            engine.handle_packet(
                data([(f"k{seq}{i}", 1) for i in range(10)], config, seq=seq)
            )
        out = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=6,
            )
        )
        flushes = [p for _port, p in out if isinstance(p, DaietPacket)]
        assert [p.seq for p in flushes] == list(range(7))  # 6 DATA + END
        state = engine.tree(1)
        # The parent holds 0 and 3: 1 and 2 are proven holes, 4..6 a lost
        # tail whose two ends (1 again, and 6) are the probes.
        pull = DaietAck(tree_id=1, src="r0", dst="sw0", cumulative=1, sack=(3,), pull=True)
        resent = engine.handle_ack(pull)
        assert [(port, p.seq) for port, p in resent] == [(9, 1), (9, 2), (9, 6)]
        assert state.counters.retransmitted_packets == 3
        assert sorted(state._sent.unacked) == [1, 2, 4, 5, 6]
        # A plain ACK repeating the hole resends nothing: the repair is out.
        again = DaietAck(tree_id=1, src="r0", dst="sw0", cumulative=1, sack=(3,))
        assert engine.handle_ack(again) == []
        # The next pull is the switch's timeout: it probes both ends again,
        # and the repair of 2 stays out until an ACK or a probe takes it up.
        assert [p.seq for _port, p in engine.handle_ack(pull)] == [1, 6]

    def test_pull_with_nothing_buffered_climbs_to_the_switch_children(self):
        config = DaietConfig(register_slots=128, reliability=True)
        engine = DaietAggregationEngine("sw0")
        engine.configure_tree(
            tree_id=1,
            function="sum",
            num_children=3,
            egress_port=9,
            next_hop_dst="r0",
            config=config,
            child_ports={"m0": 3, "leaf1": 4, "leaf0": 5},
            switch_children=("leaf1", "leaf0"),
        )
        pull = DaietAck(tree_id=1, src="r0", dst="sw0", pull=True)
        out = engine.handle_ack(pull)
        assert out == [
            (5, DaietAck(tree_id=1, src="sw0", dst="leaf0", pull=True)),
            (4, DaietAck(tree_id=1, src="sw0", dst="leaf1", pull=True)),
        ]
        assert engine.tree(1).counters.acks_sent == 2

    def test_ack_for_other_destination_is_forwarded_to_child(self):
        engine, _config = make_engine(num_children=1, reliability=True)
        ack = DaietAck(tree_id=1, src="sw1", dst="m1", cumulative=4)
        out = engine.handle_ack(ack)
        assert out == [(4, ack)], "forwarded on m1's port"

    def test_ack_for_unknown_tree_is_dropped(self):
        engine, _config = make_engine()
        assert engine.handle_ack(DaietAck(tree_id=99, src="a", dst="sw0")) == []

    def test_sequence_numbers_span_rounds(self):
        engine, config = make_engine(num_children=1, reliability=True)
        engine.handle_packet(data([("k", 1)], config, seq=0))
        first = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=1,
            )
        )
        # A late duplicate from round 1 arriving in round 2 is still filtered.
        dup = engine.handle_packet(data([("k", 1)], config, seq=0))
        assert flushed_pairs(dup) == {}
        assert engine.tree(1).counters.duplicate_packets == 1
        # Round 2 continues the same sequence space.
        engine.handle_packet(data([("k", 2)], config, seq=2))
        second = engine.handle_packet(
            DaietPacket(
                tree_id=1, src="m0", dst="r0",
                packet_type=DaietPacketType.END, config=config, seq=3,
            )
        )
        assert flushed_pairs(first) == {"k": 1}
        assert flushed_pairs(second) == {"k": 2}

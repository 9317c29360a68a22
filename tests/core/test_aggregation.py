"""Unit tests for Algorithm 1 (the in-switch aggregation engine)."""

from __future__ import annotations

import pytest

from repro.core.aggregation import DaietAggregationEngine, hash_key
from repro.core.config import DaietConfig
from repro.core.errors import AggregationError
from repro.core.packet import DaietPacket, DaietPacketType, end_packet, packetize_pairs


def make_engine(
    slots: int = 256,
    num_children: int = 2,
    function: str = "sum",
    pairs_per_packet: int = 10,
) -> tuple[DaietAggregationEngine, DaietConfig]:
    config = DaietConfig(register_slots=slots, pairs_per_packet=pairs_per_packet)
    engine = DaietAggregationEngine("sw0")
    engine.configure_tree(
        tree_id=1,
        function=function,
        num_children=num_children,
        egress_port=9,
        next_hop_dst="r0",
        config=config,
    )
    return engine, config


def flushed(engine: DaietAggregationEngine, packet: DaietPacket) -> list[DaietPacket]:
    """What ``handle_packet`` sends towards the parent (no ACKs: unreliable)."""
    return [out for _port, out in engine.handle_packet(packet)]


def data_packet(pairs, config, src="m0") -> DaietPacket:
    return DaietPacket(tree_id=1, src=src, dst="r0", pairs=tuple(pairs), config=config)


def collect_pairs(packets) -> dict[str, int]:
    result: dict[str, int] = {}
    for packet in packets:
        for key, value in packet.pairs:
            result[key] = result.get(key, 0) + value
    return result


class TestHashKey:
    def test_deterministic_and_in_range(self):
        assert hash_key("word", 1024) == hash_key("word", 1024)
        assert 0 <= hash_key("word", 7) < 7

    def test_bytes_and_str_equivalent(self):
        assert hash_key("abc", 100) == hash_key(b"abc", 100)

    def test_invalid_slots(self):
        with pytest.raises(AggregationError):
            hash_key("x", 0)


class TestAlgorithm1:
    def test_insert_then_aggregate_same_key(self):
        engine, config = make_engine(num_children=1)
        out = flushed(engine, data_packet([("ant", 2), ("ant", 3)], config))
        assert out == []  # nothing emitted before END
        state = engine.tree(1)
        assert len(state.index_stack.peek_all()) == 1
        assert state.counters.pairs_inserted == 1
        assert state.counters.pairs_aggregated == 1

    def test_flush_on_last_end(self):
        engine, config = make_engine(num_children=2)
        flushed(engine, data_packet([("a", 1), ("b", 2)], config, src="m0"))
        flushed(engine, data_packet([("a", 5)], config, src="m1"))
        assert flushed(engine, end_packet(1, "m0", "r0", config)) == []
        out = flushed(engine, end_packet(1, "m1", "r0", config))
        assert out, "the final END must flush the registers"
        assert out[-1].packet_type is DaietPacketType.END
        assert collect_pairs(out) == {"a": 6, "b": 2}

    def test_flush_addresses_packets_to_next_hop(self):
        engine, config = make_engine(num_children=1)
        flushed(engine, data_packet([("k", 1)], config))
        out = flushed(engine, end_packet(1, "m0", "r0", config))
        assert all(p.dst == "r0" and p.src == "sw0" for p in out)

    def test_rearm_after_flush_allows_next_round(self):
        engine, config = make_engine(num_children=1)
        flushed(engine, data_packet([("k", 1)], config))
        first = flushed(engine, end_packet(1, "m0", "r0", config))
        assert collect_pairs(first) == {"k": 1}
        # Second round reuses the same tree state.
        flushed(engine, data_packet([("k", 10)], config))
        second = flushed(engine, end_packet(1, "m0", "r0", config))
        assert collect_pairs(second) == {"k": 10}

    def test_extra_end_after_rearm_produces_empty_flush(self):
        engine, config = make_engine(num_children=1)
        first = flushed(engine, end_packet(1, "m0", "r0", config))
        assert [p.packet_type for p in first] == [DaietPacketType.END]
        # After the flush the tree re-arms, so a stray END simply triggers an
        # empty flush rather than corrupting state.
        second = flushed(engine, end_packet(1, "m0", "r0", config))
        assert [p.packet_type for p in second] == [DaietPacketType.END]
        assert len(engine.tree(1).index_stack.peek_all()) == 0

    def test_duplicate_end_from_one_source_is_ignored(self):
        engine, config = make_engine(num_children=2)
        flushed(engine, data_packet([("k", 1)], config, src="m0"))
        assert flushed(engine, end_packet(1, "m0", "r0", config)) == []
        # Retransmitted END from the same mapper must not trigger the flush.
        assert flushed(engine, end_packet(1, "m0", "r0", config)) == []
        out = flushed(engine, end_packet(1, "m1", "r0", config))
        assert collect_pairs(out) == {"k": 1}

    def test_min_aggregation_function(self):
        engine, config = make_engine(num_children=1, function="min")
        flushed(engine, data_packet([("d", 7), ("d", 3), ("d", 9)], config))
        out = flushed(engine, end_packet(1, "m0", "r0", config))
        assert collect_pairs(out) == {"d": 3}

    def test_unknown_tree_rejected(self):
        engine, config = make_engine()
        stray = DaietPacket(tree_id=99, src="m0", dst="r0", pairs=(("x", 1),), config=config)
        with pytest.raises(AggregationError):
            flushed(engine, stray)

    def test_remove_tree(self):
        engine, config = make_engine()
        engine.remove_tree(1)
        with pytest.raises(AggregationError):
            engine.tree(1)

    def test_tree_requires_children(self):
        engine = DaietAggregationEngine("sw0")
        with pytest.raises(AggregationError):
            engine.configure_tree(
                tree_id=1, function="sum", num_children=0, egress_port=0, next_hop_dst="r0"
            )


class TestSpillover:
    def find_colliding_keys(self, slots: int, count: int) -> list[str]:
        """Keys that all hash to the same register slot."""
        target = hash_key("key0", slots)
        found = ["key0"]
        i = 1
        while len(found) < count:
            candidate = f"key{i}"
            if hash_key(candidate, slots) == target and candidate not in found:
                found.append(candidate)
            i += 1
        return found

    def test_collision_goes_to_spillover_not_registers(self):
        slots = 8
        keys = self.find_colliding_keys(slots, 2)
        engine, config = make_engine(slots=slots, num_children=1, pairs_per_packet=4)
        flushed(engine, data_packet([(keys[0], 1), (keys[1], 2)], config))
        state = engine.tree(1)
        assert state.counters.collisions == 1
        assert len(state.spillover) == 1
        assert len(state.index_stack.peek_all()) == 1

    def test_full_spillover_is_flushed_immediately(self):
        slots = 8
        keys = self.find_colliding_keys(slots, 4)
        # The bucket holds one packet's pairs: two.
        engine, config = make_engine(slots=slots, num_children=1, pairs_per_packet=2)
        # First key occupies the register; the next two fill the 2-entry
        # spillover bucket, which must flush as soon as it is full.
        assert flushed(engine, data_packet([(keys[0], 1), (keys[1], 2)], config)) == []
        out = flushed(engine, data_packet([(keys[2], 3)], config))
        assert out, "a full spillover bucket must be flushed immediately"
        assert collect_pairs(out) == {keys[1]: 2, keys[2]: 3}
        assert engine.tree(1).counters.spillover_flushes == 1

    def test_final_flush_sends_spillover_pairs_first(self):
        slots = 8
        keys = self.find_colliding_keys(slots, 2)
        engine, config = make_engine(slots=slots, num_children=1, pairs_per_packet=10)
        flushed(engine, data_packet([(keys[0], 1), (keys[1], 2)], config))
        out = flushed(engine, end_packet(1, "m0", "r0", config))
        first_data = out[0]
        assert first_data.pairs[0][0] == keys[1], "spillover pairs are sent first"

    def test_repeated_collisions_of_same_key_merge_in_spillover(self):
        slots = 8
        keys = self.find_colliding_keys(slots, 2)
        engine, config = make_engine(slots=slots, num_children=1, pairs_per_packet=2)
        # keys[0] takes the register slot; keys[1] collides three times and
        # must occupy ONE spillover entry holding the aggregated value, not
        # three entries (which would trigger a premature flush).
        out = flushed(engine, data_packet([(keys[0], 1), (keys[1], 2)], config))
        out += flushed(engine, data_packet([(keys[1], 3), (keys[1], 4)], config))
        state = engine.tree(1)
        assert out == [], "the 2-entry bucket never filled"
        assert len(state.spillover) == 1
        assert state.spillover.peek() == ((keys[1], 9),)
        assert state.counters.spillover_merges == 2
        assert state.counters.spillover_flushes == 0

    def test_no_pairs_are_lost_under_collisions(self):
        slots = 4  # tiny register array: most keys collide
        engine, config = make_engine(slots=slots, num_children=1, pairs_per_packet=10)
        pairs = [(f"word{i}", i) for i in range(30)]
        emitted = []
        for packet in packetize_pairs(pairs, tree_id=1, src="m0", dst="r0", config=config):
            emitted.extend(flushed(engine, packet))
        totals = collect_pairs(emitted)
        assert totals == {key: value for key, value in pairs}

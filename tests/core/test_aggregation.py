"""Unit tests for Algorithm 1 (the in-switch aggregation engine)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import DaietAggregationEngine, hash_key
from repro.core.config import DaietConfig
from repro.core.errors import AggregationError, PacketFormatError
from repro.core.daiet import DaietSystem
from repro.core.functions import AggregationFunction
from repro.core.packet import (
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    end_packet,
    packetize_pairs,
)
from repro.dataplane import interning
from repro.netsim.topology import single_rack
from register_walk_model import walk_pairs


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

    @pytest.mark.parametrize("function", ["sum", "max"])
    def test_rearm_mid_round_frees_the_held_slots(self, function):
        # A rearm outside the flush path drops the round: the held slots
        # empty, and a key that collided may claim its slot next round.
        engine, config = make_engine(slots=1, num_children=1, function=function)
        flushed(engine, data_packet([("a", 1), ("b", 2)], config))
        state = engine.tree(1)
        assert state.key_register.tolist() != [-1] and len(state.spillover) == 1
        state.rearm()
        assert state.key_register.tolist() == [-1]
        assert state.value_register.tolist() == [0]
        assert state.index_stack.peek_all() == () and len(state.spillover) == 0
        flushed(engine, data_packet([("b", 5)], config))
        out = flushed(engine, end_packet(1, "m0", "r0", config))
        assert collect_pairs(out) == {"b": 5}

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

    def test_an_unregistered_function_is_refused(self):
        # The registers apply only the registered functions' ufuncs: a
        # lookalike of SUM with its own combine is not one of them.
        engine = DaietAggregationEngine("sw0")
        lookalike = AggregationFunction(name="sum", combine=lambda a, b: a + b, identity=0)
        with pytest.raises(AggregationError, match="registered functions"):
            engine.configure_tree(
                tree_id=1, function=lookalike, num_children=1, egress_port=0, next_hop_dst="r0"
            )

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
        assert list(state.spillover.items()) == [(interning.intern_key(keys[1]), 9)]
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


class TestSpilloverBucket:
    """The bucket as Phase C of the kernel (``_spill_columns``) edits it,
    checked against hand-written contents rather than against the model:
    the twin suites compare the kernel with ``register_walk_model.py``, and
    these pin what both must do."""

    @staticmethod
    def spill(engine, pairs, at=None):
        """Hand ``pairs`` (key, value) to Phase C; return ``[(at, pairs)]``."""
        state = engine.tree(1)
        kids = [interning.intern_key(key) for key, _value in pairs]
        vals = [value for _key, value in pairs]
        out = engine._spill_columns(state, kids, vals, at or [0] * len(pairs))
        assert all(port == state.egress_port for _at, port, _packet in out)
        return [(pkt_i, list(packet.pairs)) for pkt_i, _port, packet in out]

    @staticmethod
    def held(engine) -> list[tuple[str, int]]:
        bucket = engine.tree(1).spillover
        return list(zip(interning.keys_of(bucket), bucket.values()))

    def test_store_until_full(self):
        engine, _config = make_engine(pairs_per_packet=3)
        assert self.spill(engine, [("a", 1), ("b", 2)]) == []
        assert self.held(engine) == [("a", 1), ("b", 2)]
        assert self.spill(engine, [("c", 3)]) == [(0, [("a", 1), ("b", 2), ("c", 3)])]
        assert self.held(engine) == []
        assert engine.tree(1).counters.spillover_flushes == 1

    def test_flush_returns_fifo_order(self):
        engine, _config = make_engine(pairs_per_packet=3)
        out = self.spill(engine, [("c", 1), ("a", 2), ("b", 3)])
        assert out == [(0, [("c", 1), ("a", 2), ("b", 3)])]

    def test_a_partial_bucket_waits_for_the_next_call(self):
        engine, _config = make_engine(pairs_per_packet=3)
        assert self.spill(engine, [("x", 9)]) == []
        assert self.held(engine) == [("x", 9)]  # kept, not sent
        out = self.spill(engine, [("y", 1), ("x", 1), ("z", 2)])
        assert out == [(0, [("x", 10), ("y", 1), ("z", 2)])]

    def test_combine_merges_in_place_keeping_fifo_order(self):
        engine, _config = make_engine(pairs_per_packet=3)
        assert self.spill(engine, [("a", 1), ("b", 2), ("a", 10), ("b", 20)]) == []
        assert self.held(engine) == [("a", 11), ("b", 22)]
        assert engine.tree(1).counters.spillover_merges == 2

    @pytest.mark.parametrize("function, merged", [("max", 9), ("min", 3)])
    def test_a_merge_applies_the_tree_function(self, function, merged):
        engine, _config = make_engine(function=function, pairs_per_packet=3)
        self.spill(engine, [("a", 5), ("a", 3), ("a", 9)])
        assert self.held(engine) == [("a", merged)]

    def test_slot_index_resets_after_flush(self):
        engine, _config = make_engine(pairs_per_packet=2)
        assert len(self.spill(engine, [("a", 1), ("b", 2)])) == 1
        assert self.spill(engine, [("a", 7)]) == []  # a fresh entry, not a merge
        assert self.held(engine) == [("a", 7)]
        assert engine.tree(1).counters.spillover_merges == 0

    def test_each_flush_is_tagged_with_the_packet_that_filled_it(self):
        engine, _config = make_engine(pairs_per_packet=2)
        pairs = [("a", 1), ("b", 2), ("c", 3), ("c", 4), ("d", 5), ("e", 6)]
        out = self.spill(engine, pairs, at=[0, 0, 1, 1, 3, 3])
        assert out == [(0, [("a", 1), ("b", 2)]), (3, [("c", 7), ("d", 5)])]
        assert self.held(engine) == [("e", 6)]

    @given(
        st.lists(st.tuples(st.sampled_from("abcdefg"), st.integers(-50, 50)), max_size=40),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_flush_preserves_all_stored_pairs(self, pairs, capacity):
        engine, _config = make_engine(pairs_per_packet=capacity)
        flushes = [flush for _at, flush in self.spill(engine, pairs)]
        left = self.held(engine)
        assert all(len(flush) == capacity for flush in flushes)
        assert len(left) < capacity
        for packet_pairs in flushes + [left]:
            keys = [key for key, _value in packet_pairs]
            assert len(keys) == len(set(keys))  # one entry per key
        sent: dict[str, int] = {}
        for key, value in [pair for flush in flushes for pair in flush] + left:
            sent[key] = sent.get(key, 0) + value
        totals: dict[str, int] = {}
        for key, value in pairs:
            totals[key] = totals.get(key, 0) + value
        assert sent == totals


class TestRegisterOverflow:
    """A register holds a 4-byte value: a round whose flushed SUM leaves
    that range raises from ``run()``, on the kernel and on the pair-by-pair
    model of it (``register_walk_model.py``, with burst delivery stood down:
    with no burst plan every packet takes the per-packet sink)."""

    @staticmethod
    def _round(per_pair: bool, register_slots: int, partitions: list, monkeypatch=None) -> tuple:
        if per_pair:
            monkeypatch.setattr(PacketWindow, "burst_plan", lambda self: None)
            monkeypatch.setattr(DaietAggregationEngine, "_vector_apply", walk_pairs)
        system = DaietSystem(
            single_rack(3),
            DaietConfig(register_slots=register_slots, pairs_per_packet=2),
        )
        system.install_job(mappers=["h0", "h1"], reducers=["h2"])
        calls = []
        engine = system.engine("tor")
        vector_apply = engine._vector_apply
        engine._vector_apply = lambda *args: calls.append(vector_apply) or vector_apply(*args)
        for mapper, pairs in zip(("h0", "h1"), partitions):
            system.send_pairs(mapper, "h2", pairs)
        return system, calls

    @pytest.mark.parametrize("per_pair", [False, True], ids=["kernel", "per-pair"])
    def test_a_final_flush_past_the_field_refuses_the_round(self, per_pair, monkeypatch):
        partitions = [[("a", 2**31 - 1)], [("a", 2**31 - 1)]]
        system, calls = self._round(per_pair, 64, partitions, monkeypatch)
        with pytest.raises(PacketFormatError, match=f"value {2**32 - 2} does not fit in 4 bytes"):
            system.run()
        # The burst kernel took the mappers' windows, or (stood down) the
        # model took every packet.
        assert calls and all((apply.__func__ is walk_pairs) is per_pair for apply in calls)

    @pytest.mark.parametrize("per_pair", [False, True], ids=["kernel", "per-pair"])
    def test_a_spillover_flush_past_the_field_refuses_the_round(self, per_pair, monkeypatch):
        # One register slot: "r" holds it, "a" collides and merges in the
        # bucket past the field, and "b" fills the bucket, which flushes
        # before any final flush could.
        partitions = [[("r", 1), ("a", 2**31 - 1)], [("a", 2**31 - 1), ("b", 1)]]
        system, calls = self._round(per_pair, 1, partitions, monkeypatch)
        engine = system.engine("tor")
        final_flushes = []
        flush_all = engine._flush_all
        engine._flush_all = lambda state: final_flushes.append(1) or flush_all(state)
        with pytest.raises(PacketFormatError, match=f"value {2**32 - 2} does not fit in 4 bytes"):
            system.run()
        assert calls and all((apply.__func__ is walk_pairs) is per_pair for apply in calls)
        assert final_flushes == []

    def test_a_sum_back_inside_the_field_flushes_exact(self):
        # Only the flushed value counts: a sum that passes the edge on its way
        # and comes back is carried.
        partitions = [[("a", 2**31 - 1), ("a", 2**31 - 1)], [("a", -(2**31)), ("a", -5)]]
        system, _calls = self._round(False, 64, partitions)
        system.run()
        assert system.receiver("h2").result() == {"a": 2**31 - 1 + 2**31 - 1 - 2**31 - 5}

"""Twin-switch equivalence: the vectorized register kernel vs the per-pair oracle.

The ``vector-register-kernel`` fast path (``DaietAggregationEngine.
_vector_apply``) applies a whole burst of DATA packets with numpy array
operations — gather, first-occurrence resolve, scatter-add — while the
original per-pair loop (``_process_data``) remains the bit-exactness oracle.
These tests drive two identically configured engines, one through the
kernel and one through the per-pair path, and require *bit-identical*
observable state: register cells, spillover bucket order, index-stack order
(via the final flush), per-tree counters and the exact emission sequence.

The kernel's input arrays come from the simulator's burst plan
(``_plan_burst`` / ``_BurstPlan.kernel_input``) of a packet window, the one
assembler of that format, exactly as ``send_burst`` builds them.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import DaietAggregationEngine, hash_key
from repro.core.config import DaietConfig
from repro.core.packet import (
    DaietPacket,
    DaietPacketType,
    PacketWindow,
    packetize_pairs,
    packets_of,
)
from repro.dataplane import interning
from repro.netsim.simulator import _plan_burst

np = pytest.importorskip("numpy")


def make_engine(config: DaietConfig) -> DaietAggregationEngine:
    engine = DaietAggregationEngine("tor")
    engine.configure_tree(
        tree_id=7,
        function="sum",
        num_children=1,
        egress_port=0,
        next_hop_dst="h1",
        config=config,
        child_ports={"h0": 1},
    )
    return engine


def data_packets(pairs, config: DaietConfig) -> PacketWindow:
    """A mapper's window of DATA packets (no END), as ``send_burst`` takes it."""
    return packetize_pairs(
        pairs, tree_id=7, src="h0", dst="h1", config=config, include_end=False
    )


def kernel_apply(engine: DaietAggregationEngine, burst: PacketWindow, slices=None):
    """One kernel call per slice of ``burst`` (default: the whole burst).

    Returns the calls' results; a slice is ``(offset, count)`` into the plan.
    """
    plan = _plan_burst(burst)
    assert plan is not None and plan.shape_ok.all()
    state = engine.tree(7)
    return [
        engine._vector_apply(state, *plan.kernel_input(offset, count))
        for offset, count in slices or [(0, len(burst))]
    ]


def feed_fast(engine: DaietAggregationEngine, bursts, split: bool = False) -> list:
    """Apply bursts through the kernel; returns (port, packet) emissions.

    The kernel emits each spillover flush as a window; it is cut into its
    packets here, as the per-pair oracle's ``handle_packet`` cuts them.

    With ``split`` a multi-packet burst takes two calls — its first packet
    alone, then the rest from a non-zero plan offset — the way an ``until``
    bound or an interleaved foreign event cuts a window in the simulator.
    """
    emitted = []
    for burst in bursts:
        slices = [(0, 1), (1, len(burst) - 1)] if split and len(burst) > 1 else None
        for result in kernel_apply(engine, burst, slices):
            assert result is not None
            emitted.extend(packets_of((port, out) for _pkt_i, port, out in result))
    return emitted


def feed_slow(engine: DaietAggregationEngine, bursts) -> list:
    """Apply the same packets one at a time through the per-pair oracle."""
    emitted = []
    for burst in bursts:
        for packet in burst:
            emitted.extend(engine.handle_packet(packet))
    return emitted


def assert_twins_identical(fast: DaietAggregationEngine, slow: DaietAggregationEngine):
    fast_state, slow_state = fast.tree(7), slow.tree(7)
    fast_state.materialize()  # fold pending deltas so cells are comparable
    assert fast_state.key_register._cells == slow_state.key_register._cells
    assert fast_state.value_register._cells == slow_state.value_register._cells
    assert fast_state.spillover._pairs == slow_state.spillover._pairs
    assert fast_state.index_stack._items == slow_state.index_stack._items
    assert fast_state.counters == slow_state.counters


def end_packet_for(config: DaietConfig) -> DaietPacket:
    return DaietPacket(
        tree_id=7,
        src="h0",
        dst="h1",
        packet_type=DaietPacketType.END,
        config=config,
    )


class TestVectorKernelEquivalence:
    def run_twins(
        self, pair_bursts, config: DaietConfig, finish: bool = True, split: bool = False
    ):
        fast, slow = make_engine(config), make_engine(config)
        bursts = [data_packets(pairs, config) for pairs in pair_bursts]
        fast_out = feed_fast(fast, bursts, split)
        slow_out = feed_slow(slow, bursts)
        assert fast_out == slow_out  # same emissions, same order
        assert_twins_identical(fast, slow)
        if finish:
            # The final flush drains the index stack in insertion order, so
            # identical END emissions also pin the stack order bit-for-bit.
            assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
                end_packet_for(config)
            )
            assert_twins_identical(fast, slow)
        return fast, slow

    @pytest.mark.parametrize("split", [False, True])
    def test_random_bursts(self, split):
        rng = random.Random(2017)
        config = DaietConfig(register_slots=64, pairs_per_packet=8)
        bursts = [
            [
                (f"w{rng.randrange(40)}", rng.randrange(-1000, 1000))
                for _ in range(rng.randrange(1, 60))
            ]
            for _ in range(12)
        ]
        self.run_twins(bursts, config, split=split)

    def test_collision_heavy_keys(self):
        # 4 slots against a 50-word vocabulary: nearly everything collides,
        # exercising the Phase C spillover stream and its merge handling.
        rng = random.Random(7)
        config = DaietConfig(register_slots=4, pairs_per_packet=3)
        bursts = [
            [(f"key{rng.randrange(50)}", rng.randrange(1, 10)) for _ in range(30)]
            for _ in range(8)
        ]
        fast, _slow = self.run_twins(bursts, config)
        assert fast.tree(7).counters.spillover_flushes > 0

    def test_spillover_overflow_emission_order(self):
        # Force many in-burst flushes and check the emitted flush packets
        # come out identically (content *and* position in the stream).
        config = DaietConfig(register_slots=2, pairs_per_packet=2)
        bursts = [[(f"k{i % 17}", 1) for i in range(64)]]
        fast, _slow = self.run_twins(bursts, config)
        assert fast.tree(7).counters.collisions > 0

    def test_mixed_vector_and_per_pair_traffic(self):
        # A vector-ineligible packet (float values) interleaves with eligible
        # bursts on the SAME tree: the per-pair path must coexist with the
        # kernel's pending deltas without losing exactness.
        config = DaietConfig(register_slots=16, pairs_per_packet=4)
        fast, slow = make_engine(config), make_engine(config)
        eligible_a = data_packets([(f"m{i % 9}", i) for i in range(24)], config)
        oddball = DaietPacket(
            tree_id=7,
            src="h0",
            dst="h1",
            packet_type=DaietPacketType.DATA,
            pairs=(("m3", True), ("m4", True)),  # bools ride the oracle path
            config=config,
        )
        assert oddball.vector_pairs() is None  # ineligible by design
        eligible_b = data_packets([(f"m{i % 7}", -i) for i in range(20)], config)
        fast_out = feed_fast(fast, [eligible_a])
        fast_out += fast.handle_packet(oddball)
        fast_out += feed_fast(fast, [eligible_b])
        slow_out = feed_slow(slow, [eligible_a])
        slow_out += slow.handle_packet(oddball)
        slow_out += feed_slow(slow, [eligible_b])
        assert fast_out == slow_out
        assert_twins_identical(fast, slow)

    def test_round_rearm_then_next_round(self):
        # END flushes and rearms; a second round must start from a clean
        # kid -> slot memo (stale memos would resurrect freed cells).
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        fast, slow = make_engine(config), make_engine(config)
        round1 = [data_packets([(f"r{i % 12}", i + 1) for i in range(32)], config)]
        assert feed_fast(fast, round1) == feed_slow(slow, round1)
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        round2 = [data_packets([(f"r{i % 5}", 100 - i) for i in range(20)], config)]
        assert feed_fast(fast, round2) == feed_slow(slow, round2)
        assert_twins_identical(fast, slow)

    def test_int64_overflow_guard_materializes(self):
        # A burst whose cumulative mass would overflow the int64 delta
        # accumulator returns None — the caller replays it per-pair, exactly
        # as the simulator's burst handler does. The guard also folds any
        # pending deltas first so nothing is lost.
        config = DaietConfig(register_slots=8, pairs_per_packet=2)
        fast, slow = make_engine(config), make_engine(config)
        small = data_packets([("a", 5), ("b", 7)], config)
        assert feed_fast(fast, [small]) == feed_slow(slow, [small])
        state = fast.tree(7)
        huge = data_packets([("a", 2**62 - 1), ("b", 2**62 - 1)], config)
        for packet in huge:
            assert packet.vector_pairs() is not None  # per-value eligible
        assert kernel_apply(fast, huge) == [None]  # cumulative-mass guard tripped
        assert state._vec_mass == 0  # pending deltas were folded, not lost
        fast_out = feed_slow(fast, [huge])  # handler fallback: per-pair replay
        slow_out = feed_slow(slow, [huge])
        assert fast_out == slow_out
        assert_twins_identical(fast, slow)


def resident_keys(slots: int) -> list[str]:
    """One key per register slot: once they are in, every other key collides."""
    found: dict[int, str] = {}
    for i in itertools.count():
        found.setdefault(hash_key(f"resident{i}", slots), f"resident{i}")
        if len(found) == slots:
            return list(found.values())


_fresh_names = itertools.count()

#: What a seeded bucket may hold besides interned keys with plain ints:
#: each of these makes the kernel replay the call's collisions per pair.
BUCKET_SEEDS = {
    "plain ints": None,
    "a key never interned": lambda: (f"unseen{next(_fresh_names)}", 1),
    "a bool value": lambda: ("spill1", True),
    "a float value": lambda: ("spill2", 2.5),
    "a value at 2**62": lambda: ("spill3", 2**62),
    "a value below -(2**62)": lambda: ("spill4", -(2**62) - 7),
    "a flushed sum reaching 2**62": lambda: ("spill0", 2**62 - 1),
}


def strict(pairs) -> list:
    """Pairs with their value types, so ``True`` and ``1`` differ."""
    return [(key, type(value), value) for key, value in pairs]


class TestSpillStream:
    """The kernel's Phase C in kid space against the per-pair replay."""

    @pytest.mark.parametrize("seeded_with", list(BUCKET_SEEDS))
    @settings(max_examples=25, deadline=None)
    @given(
        per=st.integers(2, 5),
        slots=st.integers(1, 4),
        reliable=st.booleans(),
        seed=st.lists(st.tuples(st.integers(0, 11), st.integers(-50, 50)), max_size=4),
        stream=st.lists(
            st.tuples(st.integers(0, 11), st.integers(-50, 50)), min_size=1, max_size=80
        ),
    )
    def test_kid_space_phase_c_is_the_per_pair_replay(
        self, seeded_with, per, slots, reliable, seed, stream
    ):
        # Residents claim every slot through the per-pair loop, whose stores
        # then seed the bucket (less than a packet's worth, so it holds them
        # when the kernel starts); every pair of the kernel's burst collides.
        interning.intern_keys([f"spill{k}" for k in range(12)])
        config = DaietConfig(register_slots=slots, pairs_per_packet=per, reliability=reliable)
        fast, slow = make_engine(config), make_engine(config)
        trigger = BUCKET_SEEDS[seeded_with]
        held = dict([trigger()] if trigger is not None else [])
        for k, value in seed:
            held.setdefault(f"spill{k}", value)
        held = list(held.items())[: per - 1]
        if seeded_with == "a flushed sum reaching 2**62":
            # spill0 merges and its entry flushes within the call.
            stream = [(0, 1), *((k, 1) for k in range(1, per + 1)), *stream]
        fallbacks = []
        spill_pairs = fast._spill_pairs
        fast._spill_pairs = lambda *args: fallbacks.append(1) or spill_pairs(*args)
        residents = resident_keys(slots)
        for engine in (fast, slow):
            for start in range(0, slots, per):
                engine.handle_packet(
                    DaietPacket(
                        tree_id=7, src="h0", dst="h1", config=config,
                        pairs=tuple((key, 1) for key in residents[start : start + per]),
                    )
                )
            if held:
                engine.handle_packet(
                    DaietPacket(tree_id=7, src="h0", dst="h1", pairs=tuple(held), config=config)
                )
        assert strict(fast.tree(7).spillover.peek()) == strict(held)
        window = data_packets([(f"spill{k}", v) for k, v in stream], config)
        (result,) = kernel_apply(fast, window)
        fast_out = [(i, port, out) for i, port, out in result]
        slow_out = [
            (i, port, out)
            for i, packet in enumerate(window)
            for port, out in slow.handle_packet(packet)
        ]
        # Positions, packets and their order; values with their types.
        assert fast_out == slow_out
        assert [strict(out.pairs) for _i, _port, out in fast_out] == [
            strict(out.pairs) for _i, _port, out in slow_out
        ]
        assert len(fallbacks) == (trigger is not None)
        fast_state, slow_state = fast.tree(7), slow.tree(7)
        assert strict(fast_state.spillover.peek()) == strict(slow_state.spillover.peek())
        assert_twins_identical(fast, slow)
        assert fast_state._next_seq == slow_state._next_seq
        assert {seq: w[i] for seq, (w, i) in fast_state._sent.unacked.items()} == {
            seq: w[i] for seq, (w, i) in slow_state._sent.unacked.items()
        }
        for _i, _port, out in fast_out:  # what is buffered is what went out
            if reliable:
                window_of, index = fast_state._sent.unacked[out.seq]
                assert window_of[index] is out
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        assert_twins_identical(fast, slow)


def sequenced_packets(pairs, config: DaietConfig, seq_start: int = 0) -> PacketWindow:
    return packetize_pairs(
        pairs,
        tree_id=7,
        src="h0",
        dst="h1",
        config=config,
        include_end=False,
        seq_start=seq_start,
    )


class TestSequencedStreamAdmission:
    """What the kernel may take from a sequenced stream, and the ACKs owed."""

    CONFIG = DaietConfig(register_slots=16, pairs_per_packet=2, reliability=True)

    def test_fresh_run_is_the_stream_predicate(self):
        engine = make_engine(self.CONFIG)
        state = engine.tree(7)
        window = state.window("h0")
        for seq in (0, 1, 2, 3, 4, 7):
            window.observe(seq)
        # One window numbered 0..19: item i carries sequence number i.
        stream = sequenced_packets([("k", 1)] * 40, self.CONFIG)

        def admitted(*seqs):
            return engine._fresh_run(state, stream, list(seqs))

        assert window.high_water == 7
        assert admitted(8, 9, 12) == 3  # the items lost in between do not count
        assert engine._fresh_run(state, stream, range(8, 20)) == 12
        assert admitted(7) == 0  # the highest number seen: a duplicate
        assert admitted(5, 8) == 0  # a gap-fill
        unsequenced = data_packets([("k", 1)] * 6, self.CONFIG)
        assert engine._fresh_run(state, unsequenced, range(3)) == 3
        assert unsequenced.built == {}  # answered without building a packet
        object.__setattr__(stream[10], "ecn", True)
        assert admitted(8, 10, 11) == 1
        assert admitted(8, 9, 11) == 3  # the marked packet is not in this run
        window.end_seq = 15  # a stashed END: the stream waits for its gap
        assert admitted(8) == 0

    @pytest.mark.parametrize("ack_window", [1, 3, 8])
    def test_kernel_plus_accept_run_is_process_data(self, ack_window):
        # A window that starts behind a hole (seq 0 lost) and has a second
        # hole further on; small registers so spillover flushes interleave
        # with the ACKs.
        config = DaietConfig(
            register_slots=8, pairs_per_packet=3, reliability=True, ack_window=ack_window
        )
        rng = random.Random(ack_window)
        pairs = [(f"k{rng.randrange(40)}", rng.randrange(-9, 9)) for _ in range(150)]
        window = sequenced_packets(pairs, config)
        fast, slow = make_engine(config), make_engine(config)
        slow_out = []
        for packet in window:
            if packet.seq not in (0, 17):
                slow_out.extend(slow.handle_packet(packet))
        state = fast.tree(7)
        plan = _plan_burst(window)
        plan.drop([0, 17])  # lost in flight, as ``_transmit_burst`` drops them
        # Holes do not stop a run: every number is above the ones before it.
        assert fast._fresh_run(state, window, plan.items) == len(plan.items)
        result = fast._vector_apply(state, *plan.kernel_input(0, len(plan.items)))
        emitted = [(i, 0, port, out) for i, port, out in result]
        acks = fast._accept_run(state, window, plan.items)
        emitted += [(i, 1, port, ack) for i, port, ack in acks]
        fast_out = packets_of(
            (port, out) for _i, _kind, port, out in sorted(emitted, key=lambda e: e[:2])
        )
        assert fast_out == slow_out
        assert any(out.__class__.__name__ == "DaietAck" for _port, out in fast_out)
        assert_twins_identical(fast, slow)
        fast_window, slow_window = state.window("h0"), slow.tree(7).window("h0")
        assert (fast_window.cumulative, fast_window.out_of_order, fast_window.since_ack) == (
            slow_window.cumulative,
            slow_window.out_of_order,
            slow_window.since_ack,
        )


def register_walk(engine: DaietAggregationEngine) -> list:
    """The pairs the final flush's walk emits, read without touching the state.

    Spillover first, then each occupied slot from the last one claimed down,
    valued at its cell plus its pending kernel delta.
    """
    state = engine.tree(7)
    keys, cells = state.key_register._cells, state.value_register._cells
    return list(state.spillover.peek()) + [
        (keys[slot], cells[slot] + int(state._vec_delta[slot]))
        for slot in reversed(state.index_stack.peek_all())
    ]


def flushed_pairs(emissions) -> list:
    return [
        pair
        for _port, packet in packets_of(emissions)
        if packet.packet_type is DaietPacketType.DATA
        for pair in packet.pairs
    ]


class TestColumnFlush:
    """A ``_vec`` tree's final flush is cut from the kernel's own columns."""

    @settings(max_examples=80, deadline=None)
    @given(
        slots=st.integers(1, 16),
        per=st.integers(1, 5),
        bursts=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    st.tuples(st.integers(0, 30), st.integers(-(2**40), 2**40)),
                    min_size=1,
                    max_size=12,
                ),
            ),
            max_size=6,
        ),
    )
    def test_column_flush_emits_what_the_walk_emits(self, slots, per, bursts):
        # Kernel bursts and per-pair packets claim slots in any mix; the
        # flush emits the walk's pairs in the walk's order, and leaves the
        # registers as the walk leaves them.
        config = DaietConfig(register_slots=slots, pairs_per_packet=per)
        engine = make_engine(config)
        for through_kernel, pairs in bursts:
            window = data_packets([(f"col{k}", v) for k, v in pairs], config)
            if through_kernel:
                assert kernel_apply(engine, window) != [None]
            else:
                feed_slow(engine, [window])
        state = engine.tree(7)
        walk = register_walk(engine)
        out = engine._flush_all(state)
        [(_port, window)] = out
        if type(window) is PacketWindow:  # not the lone END of empty registers
            assert window.columns.kids is not None  # cut from columns, not pairs
        assert flushed_pairs(out) == walk
        assert len(state.index_stack.peek_all()) == 0 and state._vec_mass == 0
        assert set(state.key_register._cells) == set(state.value_register._cells) == {None}

    def test_a_key_never_interned_takes_the_walk(self):
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        engine = make_engine(config)
        fresh = "unseen-col-key"
        assert interning.kid_of(fresh) == -1
        engine.handle_packet(
            DaietPacket(tree_id=7, src="h0", dst="h1", pairs=((fresh, 3),), config=config)
        )
        feed_slow(engine, [data_packets([("col1", 2), ("col2", 5)], config)])
        walk = register_walk(engine)
        out = engine._flush_all(engine.tree(7))
        [(_port, window)] = out
        assert window.columns.kids is None  # built from pairs by the walk
        assert flushed_pairs(out) == walk

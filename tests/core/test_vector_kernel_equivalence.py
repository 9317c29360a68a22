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
(``_plan_burst`` / ``_BurstPlan.kernel_input``), the one assembler of that
format, exactly as ``send_burst`` builds them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.packet import DaietPacket, DaietPacketType, packetize_pairs
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


def data_packets(pairs, config: DaietConfig) -> list[DaietPacket]:
    packets = [
        p
        for p in packetize_pairs(
            pairs, tree_id=7, src="h0", dst="h1", config=config, include_end=False
        )
    ]
    for packet in packets:
        # The burst path consumes the per-packet vector cache, which the
        # sender warms outside the timed region; mirror that here.
        packet.vector_pairs()
    return packets


def kernel_apply(engine: DaietAggregationEngine, burst, slices=None):
    """One kernel call per slice of ``burst`` (default: the whole burst).

    Returns the calls' results; a slice is ``(offset, count)`` into the plan.
    """
    plan = _plan_burst([(packet, packet.wire_bytes()) for packet in burst])
    assert plan is not None and plan.shape_ok.all()
    state = engine.tree(7)
    return [
        engine._vector_apply(state, *plan.kernel_input(offset, count))
        for offset, count in slices or [(0, len(burst))]
    ]


def feed_fast(engine: DaietAggregationEngine, bursts, split: bool = False) -> list:
    """Apply bursts through the kernel; returns (port, packet) emissions.

    With ``split`` a multi-packet burst takes two calls — its first packet
    alone, then the rest from a non-zero plan offset — the way an ``until``
    bound or an interleaved foreign event cuts a window in the simulator.
    """
    emitted = []
    for burst in bursts:
        slices = [(0, 1), (1, len(burst) - 1)] if split and len(burst) > 1 else None
        for result in kernel_apply(engine, burst, slices):
            assert result is not None
            emitted.extend((port, packet) for _pkt_i, port, packet in result)
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
        config = DaietConfig(register_slots=4, pairs_per_packet=4, spillover_capacity=3)
        bursts = [
            [(f"key{rng.randrange(50)}", rng.randrange(1, 10)) for _ in range(30)]
            for _ in range(8)
        ]
        fast, _slow = self.run_twins(bursts, config)
        assert fast.tree(7).counters.spillover_flushes > 0

    def test_spillover_overflow_emission_order(self):
        # Force many in-burst flushes and check the emitted flush packets
        # come out identically (content *and* position in the stream).
        config = DaietConfig(register_slots=2, pairs_per_packet=4, spillover_capacity=2)
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
        huge = [
            DaietPacket(
                tree_id=7,
                src="h0",
                dst="h1",
                packet_type=DaietPacketType.DATA,
                pairs=((key, 2**62 - 1),),
                config=config,
            )
            for key in ("a", "b")
        ]
        for packet in huge:
            assert packet.vector_pairs() is not None  # per-value eligible
        assert kernel_apply(fast, huge) == [None]  # cumulative-mass guard tripped
        assert state._vec_mass == 0  # pending deltas were folded, not lost
        fast_out = feed_slow(fast, [huge])  # handler fallback: per-pair replay
        slow_out = feed_slow(slow, [huge])
        assert fast_out == slow_out
        assert_twins_identical(fast, slow)


def sequenced_packets(pairs, config: DaietConfig, seq_start: int = 0) -> list[DaietPacket]:
    return list(
        packetize_pairs(
            pairs,
            tree_id=7,
            src="h0",
            dst="h1",
            config=config,
            include_end=False,
            seq_start=seq_start,
        )
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
        by_seq = {
            packet.seq: packet
            for packet in sequenced_packets([("k", 1)] * 40, self.CONFIG)
        }

        def admitted(*seqs):
            packets = [by_seq[seq] for seq in seqs]
            return len(engine._fresh_run(state, "h0", packets, 0, len(packets)))

        assert window.high_water == 7
        assert admitted(8, 9, 12) == 3
        assert admitted(7) == 0  # the highest number seen: a duplicate
        assert admitted(5, 8) == 0  # a gap-fill
        assert admitted(8, 8) == 1
        assert admitted(8, 6) == 1
        unsequenced = data_packets([("k", 1)] * 6, self.CONFIG)
        assert engine._fresh_run(state, "h0", unsequenced, 0, 3) == [None] * 3
        marked = by_seq[10]
        object.__setattr__(marked, "ecn", True)
        assert admitted(8, 10, 11) == 1
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
        burst = [p for p in sequenced_packets(pairs, config) if p.seq not in (0, 17)]
        fast, slow = make_engine(config), make_engine(config)
        slow_out = []
        for packet in burst:
            slow_out.extend(slow.handle_packet(packet))
        state = fast.tree(7)
        # Holes do not stop a run: every number is above the ones before it.
        seqs = fast._fresh_run(state, "h0", burst, 0, len(burst))
        assert seqs == [packet.seq for packet in burst]
        plan = _plan_burst([(packet, packet.wire_bytes()) for packet in burst])
        result = fast._vector_apply(state, *plan.kernel_input(0, len(burst)))
        emitted = [(i, 0, port, out) for i, port, out in result]
        emitted += [(i, 1, port, ack) for i, port, ack in fast._accept_run(state, "h0", seqs)]
        fast_out = [(port, out) for _i, _kind, port, out in sorted(emitted, key=lambda e: e[:2])]
        assert fast_out == slow_out
        assert any(out.__class__.__name__ == "DaietAck" for _port, out in fast_out)
        assert_twins_identical(fast, slow)
        fast_window, slow_window = state.window("h0"), slow.tree(7).window("h0")
        assert (fast_window.cumulative, fast_window.out_of_order, fast_window.since_ack) == (
            slow_window.cumulative,
            slow_window.out_of_order,
            slow_window.since_ack,
        )

"""Twin-switch equivalence: the register kernel vs the pair-by-pair model.

The ``vector-register-kernel`` fast path (``DaietAggregationEngine.
_vector_apply``) applies every DATA packet's pairs with numpy array
operations — gather, claim, the tree function's ``ufunc.at`` — a burst's in
one call and a lone packet's in a call of one. Its oracle is
``register_walk_model.py``: Algorithm 1 pair by pair over the same register
file, patched in for the kernel on the slow twin (:func:`make_engine` with
``walk``). These tests drive the fast twin through the kernel, burst by
burst, and the slow one packet by packet through ``handle_packet`` and the
model, for every registered function, and require *bit-identical*
observable state: key and value registers, spillover bucket order,
index-stack order, per-tree counters and the exact emission sequence.

The kernel's input arrays come from a packet window's burst plan
(``PacketWindow.burst_plan()`` / ``BurstPlan.kernel_input``), the one
assembler of that format, exactly as ``send_burst`` builds them.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    DaietAggregationEngine,
    WindowBatch,
    _packet_run,
    _window_run,
    hash_key,
)
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import PacketFormatError, ResourceExhaustedError
from repro.core.functions import aggregate_pairs, get as get_function
from repro.core.packet import (
    DaietAck,
    DaietPacket,
    _ColumnPairs,
    DaietPacketType,
    PacketWindow,
    packetize_pairs,
    packets_of,
    steer_ops,
)
from repro.dataplane import interning
from repro.dataplane.registers import IndexStack
from repro.netsim.topology import leaf_spine
from register_walk_model import walking_engine

np = pytest.importorskip("numpy")


#: Every registered aggregation function: each one takes the kernel.
FUNCTIONS = ["sum", "count", "min", "max", "or", "and"]


def make_engine(
    config: DaietConfig, function: str = "sum", walk: bool = False
) -> DaietAggregationEngine:
    """A switch's engine with tree 7; with ``walk``, the model applies its pairs."""
    engine = DaietAggregationEngine("tor")
    engine.configure_tree(
        tree_id=7,
        function=function,
        num_children=1,
        egress_port=0,
        next_hop_dst="h1",
        config=config,
        child_ports={"h0": 1},
    )
    return walking_engine(engine) if walk else engine


def twins(config: DaietConfig, function: str = "sum"):
    """``(fast, slow)``: the kernel's engine and the model's."""
    return make_engine(config, function), make_engine(config, function, walk=True)


def data_packets(pairs, config: DaietConfig) -> PacketWindow:
    """A mapper's window of DATA packets (no END), as ``send_burst`` takes it."""
    return packetize_pairs(
        pairs, tree_id=7, src="h0", dst="h1", config=config, include_end=False
    )


def kernel_apply(engine: DaietAggregationEngine, burst: PacketWindow, slices=None):
    """One kernel call per slice of ``burst`` (default: the whole burst).

    Returns the calls' results; a slice is ``(offset, count)`` into the plan.
    The packets are counted as ``WindowBatch.take`` counts what it takes. The
    kernel is called even on an engine the model walks for its lone packets.
    """
    plan = burst.burst_plan()
    assert plan is not None and plan.shape_ok.all()
    state = engine.tree(7)
    results = []
    for offset, count in slices or [(0, len(burst))]:
        state.counters.packets_received += count
        results.append(
            DaietAggregationEngine._vector_apply(engine, state, *plan.kernel_input(offset, count))
        )
    return results


def feed_fast(engine: DaietAggregationEngine, bursts, split: bool = False) -> list:
    """Apply bursts through the kernel; returns (port, packet) emissions.

    The kernel emits each spillover flush as a window; it is cut into its
    packets here, as ``handle_packet`` cuts them.

    With ``split`` a multi-packet burst takes two calls — its first packet
    alone, then the rest from a non-zero plan offset — the way an ``until``
    bound or an interleaved foreign event cuts a window in the simulator.
    """
    emitted = []
    for burst in bursts:
        slices = [(0, 1), (1, len(burst) - 1)] if split and len(burst) > 1 else None
        for result in kernel_apply(engine, burst, slices):
            emitted.extend(packets_of((port, out) for _pkt_i, port, out in result))
    return emitted


def feed_slow(engine: DaietAggregationEngine, bursts) -> list:
    """Apply the same packets one at a time through ``handle_packet``."""
    emitted = []
    for burst in bursts:
        for packet in burst:
            emitted.extend(engine.handle_packet(packet))
    return emitted


def kid(key: str) -> int:
    """The kid a switch holds for ``key`` (interned on first sight)."""
    return interning.intern_key(key)


def assert_twins_identical(fast: DaietAggregationEngine, slow: DaietAggregationEngine):
    fast_state, slow_state = fast.tree(7), slow.tree(7)
    assert fast_state.key_register.tolist() == slow_state.key_register.tolist()
    assert fast_state.value_register.tolist() == slow_state.value_register.tolist()
    assert list(fast_state.spillover.items()) == list(slow_state.spillover.items())
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
        self,
        pair_bursts,
        config: DaietConfig,
        finish: bool = True,
        split: bool = False,
        function: str = "sum",
    ):
        fast, slow = twins(config, function)
        bursts = [data_packets(pairs, config) for pairs in pair_bursts]
        fast_out = feed_fast(fast, bursts, split)
        slow_out = feed_slow(slow, bursts)
        assert fast_out == slow_out  # same emissions, same order
        assert_twins_identical(fast, slow)
        if finish:
            # The final flush drains the index stack in insertion order, so
            # identical END emissions also pin the stack order bit-for-bit.
            end_out = fast.handle_packet(end_packet_for(config))
            assert end_out == slow.handle_packet(end_packet_for(config))
            assert_twins_identical(fast, slow)
            # What the round flushed is also checked against the plain fold
            # of its pairs.
            fold = get_function(function)
            assert aggregate_pairs(flushed_pairs(fast_out + end_out), fold) == aggregate_pairs(
                [pair for pairs in pair_bursts for pair in pairs], fold
            )
        return fast, slow

    @pytest.mark.parametrize("function", FUNCTIONS)
    @pytest.mark.parametrize("split", [False, True])
    def test_random_bursts(self, split, function):
        rng = random.Random(2017)
        config = DaietConfig(register_slots=64, pairs_per_packet=8)
        bursts = [
            [
                (f"w{rng.randrange(40)}", rng.randrange(-1000, 1000))
                for _ in range(rng.randrange(1, 60))
            ]
            for _ in range(12)
        ]
        self.run_twins(bursts, config, split=split, function=function)

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_collision_heavy_keys(self, function):
        # 4 slots against a 50-word vocabulary: nearly everything collides,
        # exercising the Phase C spillover stream and its merge handling.
        rng = random.Random(7)
        config = DaietConfig(register_slots=4, pairs_per_packet=3)
        bursts = [
            [(f"key{rng.randrange(50)}", rng.randrange(1, 10)) for _ in range(30)]
            for _ in range(8)
        ]
        fast, _slow = self.run_twins(bursts, config, function=function)
        assert fast.tree(7).counters.spillover_flushes > 0

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_spillover_overflow_emission_order(self, function):
        # Force many in-burst flushes and check the emitted flush packets
        # come out identically (content *and* position in the stream).
        config = DaietConfig(register_slots=2, pairs_per_packet=2)
        bursts = [[(f"k{i % 17}", i % 5 - 2) for i in range(64)]]
        fast, _slow = self.run_twins(bursts, config, function=function)
        assert fast.tree(7).counters.collisions > 0

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_a_lone_packet_between_bursts(self, function):
        # A packet of its own (built by the constructor, handed to
        # handle_packet: a kernel call of one) interleaves with kernel
        # bursts on the SAME tree without losing exactness.
        config = DaietConfig(register_slots=16, pairs_per_packet=4)
        fast, slow = twins(config, function)
        eligible_a = data_packets([(f"m{i % 9}", i) for i in range(24)], config)
        oddball = DaietPacket(
            tree_id=7,
            src="h0",
            dst="h1",
            packet_type=DaietPacketType.DATA,
            pairs=(("m3", 2**31 - 1), ("m4", -(2**31))),
            config=config,
        )
        assert oddball.vector_pairs() is not None  # a partition of one
        eligible_b = data_packets([(f"m{i % 7}", -i) for i in range(20)], config)
        fast_out = feed_fast(fast, [eligible_a])
        fast_out += fast.handle_packet(oddball)
        fast_out += feed_fast(fast, [eligible_b])
        slow_out = feed_slow(slow, [eligible_a])
        slow_out += slow.handle_packet(oddball)
        slow_out += feed_slow(slow, [eligible_b])
        assert fast_out == slow_out
        assert_twins_identical(fast, slow)

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_round_rearm_then_next_round(self, function):
        # END flushes and rearms; a second round must start from a clean
        # kid -> slot memo (stale memos would resurrect freed cells).
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        fast, slow = twins(config, function)
        round1 = [data_packets([(f"r{i % 12}", i + 1) for i in range(32)], config)]
        assert feed_fast(fast, round1) == feed_slow(slow, round1)
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        round2 = [data_packets([(f"r{i % 5}", 100 - i) for i in range(20)], config)]
        assert feed_fast(fast, round2) == feed_slow(slow, round2)
        assert_twins_identical(fast, slow)

    def test_a_sum_leaving_the_value_field_refuses_the_round(self):
        # A value past the 4-byte field never reaches the kernel: it is
        # refused at send, so the int64 register needs no guard. In-range
        # values whose sum outgrows the field are held exactly by the int64
        # value register, on both twins, and the final flush refuses the
        # round on both (the register-overflow rule).
        config = DaietConfig(register_slots=8, pairs_per_packet=2)
        for huge in (2**62 - 1, 2**31):
            with pytest.raises(PacketFormatError, match=f"value {huge} does not fit"):
                data_packets([("a", huge)], config)
        fast, slow = twins(config)
        small = data_packets([("a", 5), ("b", 7)], config)
        assert feed_fast(fast, [small]) == feed_slow(slow, [small])
        top = data_packets([("a", 2**31 - 1), ("b", -(2**31))], config)
        for _ in range(2):
            assert feed_fast(fast, [top]) == feed_slow(slow, [top])
        assert_twins_identical(fast, slow)
        assert fast.tree(7).value_register[hash_key("a", 8)] == 2 * (2**31 - 1) + 5
        errors = []
        for engine in (fast, slow):
            with pytest.raises(PacketFormatError) as refused:
                engine.handle_packet(end_packet_for(config))
            errors.append(str(refused.value))
        # "b" was claimed last, so its sum is the first pair of the flush.
        assert errors == [f"value {7 - 2**32} does not fit in 4 bytes"] * 2


def keys_in_one_slot(slots: int, count: int, prefix: str) -> tuple[int, list[str]]:
    """The first ``count`` keys ``prefix0, prefix1, ...`` that share a slot, and the slot."""
    groups: dict[int, list[str]] = {}
    for i in itertools.count():
        key = f"{prefix}{i}"
        group = groups.setdefault(hash_key(key, slots), [])
        group.append(key)
        if len(group) == count:
            return hash_key(key, slots), group


def held_keys(engine: DaietAggregationEngine) -> dict[int, str]:
    """Occupied slot -> the key whose kid the key register holds there."""
    kids = engine.tree(7).key_register.tolist()
    held = [slot for slot, kid in enumerate(kids) if kid >= 0]
    return dict(zip(held, interning.keys_of(kids[slot] for slot in held)))


class TestPhaseA:
    """The kernel's slot claims, as array operations, against the model.

    Each case ends with the twins agreeing on the kid register, the value
    cells, the index-stack order, the spillover order, the counters and
    every emission; the cases also pin who won each contended slot.
    """

    SLOTS = 16

    def twins(self, per: int = 4):
        config = DaietConfig(register_slots=self.SLOTS, pairs_per_packet=per)
        return (config, *twins(config))

    def test_two_new_kids_contend_for_one_slot_in_one_packet(self):
        config, fast, slow = self.twins(per=6)
        slot, (a, b) = keys_in_one_slot(self.SLOTS, 2, "pa")
        c = next(f"pc{i}" for i in itertools.count() if hash_key(f"pc{i}", self.SLOTS) != slot)
        other_slot = hash_key(c, self.SLOTS)
        # b occurs first, so b claims; c claims its own slot after b.
        burst = [data_packets([(b, 1), (a, 2), (c, 3), (b, 4), (a, 5)], config)]
        assert feed_fast(fast, burst) == feed_slow(slow, burst)
        assert_twins_identical(fast, slow)
        assert held_keys(fast) == {slot: b, other_slot: c}
        assert fast.tree(7).index_stack._items == [slot, other_slot]
        assert list(fast.tree(7).spillover.items()) == [(kid(a), 7)]
        counters = fast.tree(7).counters
        assert (counters.pairs_inserted, counters.collisions) == (2, 2)

    @pytest.mark.parametrize(
        "function, values",
        [
            ("min", [3, 8, 5, 3]),
            ("max", [9, -4, 9, 0]),
            ("and", [0b0110, 0b1111, 0b0111, 0b0110]),
        ],
    )
    def test_a_claim_without_identity_keeps_its_first_value(self, function, values):
        # MIN, MAX and AND have no identity: a claimed cell starts at the
        # kid's first value, and the ufunc applies that value again with the
        # rest, which changes nothing. Here the first value is the answer.
        config = DaietConfig(register_slots=self.SLOTS, pairs_per_packet=4)
        fast, slow = twins(config, function)
        slot, (a, b) = keys_in_one_slot(self.SLOTS, 2, "pf")
        burst = [data_packets([(a, value) for value in values] + [(b, 1)], config)]
        assert feed_fast(fast, burst) == feed_slow(slow, burst)
        assert_twins_identical(fast, slow)
        assert fast.tree(7).value_register[slot] == values[0]
        assert list(fast.tree(7).spillover.items()) == [(kid(b), 1)]
        assert fast.tree(7).counters.pairs_inserted == 1

    def test_two_new_kids_contend_across_two_packets_of_one_burst(self):
        slot, (a, b) = keys_in_one_slot(self.SLOTS, 2, "pb")
        # Packet 0 carries b's first occurrence; packet 1 brings a, which
        # collides with b, then b again, which aggregates. Split, the two
        # packets take two kernel calls.
        for split in (False, True):
            config, fast, slow = self.twins(per=2)
            burst = [data_packets([("pb-other", 1), (b, 2), (a, 3), (b, 4)], config)]
            assert len(burst[0]) == 2
            assert feed_fast(fast, burst, split) == feed_slow(slow, burst)
            assert_twins_identical(fast, slow)
            assert held_keys(fast)[slot] == b
            assert fast.tree(7).value_register[slot] == 6
            assert list(fast.tree(7).spillover.items()) == [(kid(a), 3)]

    def test_a_slot_a_lone_packet_claimed(self):
        # A lone packet claims a's slot (a kernel call of one); a burst then
        # finds a resident (it aggregates) and b, which wants the same slot,
        # colliding.
        config, fast, slow = self.twins(per=4)
        slot, (a, b) = keys_in_one_slot(self.SLOTS, 2, "pp")
        lone = DaietPacket(tree_id=7, src="h0", dst="h1", pairs=((a, 10),), config=config)
        for engine in (fast, slow):
            engine.handle_packet(lone)
        burst = [data_packets([(b, 1), (a, 2), (b, 3), (a, 4)], config)]
        assert feed_fast(fast, burst) == feed_slow(slow, burst)
        assert_twins_identical(fast, slow)
        assert held_keys(fast) == {slot: a}
        assert fast.tree(7).value_register[slot] == 16
        assert list(fast.tree(7).spillover.items()) == [(kid(b), 4)]
        # And back: a lone packet sees the burst's verdicts in the memo.
        after = DaietPacket(tree_id=7, src="h0", dst="h1", pairs=((a, 1), (b, 1)), config=config)
        assert fast.handle_packet(after) == slow.handle_packet(after)
        assert_twins_identical(fast, slow)
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        assert_twins_identical(fast, slow)

    def test_a_rearm_between_rounds_frees_the_slots(self):
        # Round 1: a holds the slot, b collides. Round 2 starts from empty
        # registers and fresh memos: b occurs first and claims the slot.
        config, fast, slow = self.twins(per=4)
        slot, (a, b) = keys_in_one_slot(self.SLOTS, 2, "pr")
        round1 = [data_packets([(a, 1), (b, 2), (a, 3)], config)]
        assert feed_fast(fast, round1) == feed_slow(slow, round1)
        assert held_keys(fast) == {slot: a}
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        assert_twins_identical(fast, slow)
        assert held_keys(fast) == {} and fast.tree(7).index_stack._items == []
        round2 = [data_packets([(b, 5), (a, 6), (b, 7)], config)]
        assert feed_fast(fast, round2) == feed_slow(slow, round2)
        assert_twins_identical(fast, slow)
        assert held_keys(fast) == {slot: b}
        assert list(fast.tree(7).spillover.items()) == [(kid(a), 6)]
        assert fast.handle_packet(end_packet_for(config)) == slow.handle_packet(
            end_packet_for(config)
        )
        assert_twins_identical(fast, slow)

    def test_a_full_index_stack_refuses_before_any_claim(self):
        config, fast, _slow = self.twins()
        state = fast.tree(7)
        state.index_stack.capacity = 1  # as if every other slot were held
        burst = data_packets([(f"full{i}", 1) for i in range(4)], config)
        with pytest.raises(ResourceExhaustedError, match="index stack overflow"):
            kernel_apply(fast, burst)
        assert state.index_stack._items == []
        assert set(state.key_register.tolist()) == {-1}
        assert set(state._kid_slot.tolist()) == {-3}  # no verdict was kept


class TestPhaseAIsArrayWork:
    def test_the_kernel_calls_no_per_key_function(self, monkeypatch):
        # A leaf-spine round with reliability on: the kernel claims slots,
        # finds residents and collides on every switch, and pushes the
        # claimed slots one call at a time, not one slot at a time (the
        # index stack has no one-slot push). The pool has no per-kid lookup
        # either: a key comes back only through keys_of and a home slot only
        # through crcs_of, a column at a time.
        assert not hasattr(interning, "key_of")
        assert not hasattr(interning, "crc_of")
        assert not hasattr(IndexStack, "push")
        inside = [0]
        calls = {"push_many": 0}
        kernel_calls = [0]
        apply = DaietAggregationEngine._vector_apply

        def traced_apply(engine, *args):
            inside[0] += 1
            kernel_calls[0] += 1
            try:
                return apply(engine, *args)
            finally:
                inside[0] -= 1

        def counting(name, function):
            def wrapper(*args):
                if inside[0]:
                    calls[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(DaietAggregationEngine, "_vector_apply", traced_apply)
        monkeypatch.setattr(IndexStack, "push_many", counting("push_many", IndexStack.push_many))
        config = DaietConfig(register_slots=64, pairs_per_packet=10, reliability=True)
        system = DaietSystem(leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3), config)
        mappers = [f"h{i}" for i in range(8)]
        system.install_job(mappers=mappers, reducers=["h8"])
        rng = random.Random(36)
        truth: dict[str, int] = {}
        for mapper in mappers:
            pairs = [(f"fab{rng.randrange(120)}", rng.randrange(1, 9)) for _ in range(400)]
            for key, value in pairs:
                truth[key] = truth.get(key, 0) + value
            system.send_pairs(mapper, "h8", pairs)
        system.run()
        assert system.receiver("h8").result() == truth
        assert kernel_calls[0] > 0
        counters = [
            engine.tree(tree_id).counters
            for engine in system.controller.engines.values()
            for tree_id in engine.counters()
        ]
        assert sum(c.pairs_inserted for c in counters) > 0
        assert sum(c.collisions for c in counters) > 0
        assert 0 < calls["push_many"] <= kernel_calls[0]  # the kernel claimed slots


class TestValueWidening:
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_ufunc_at_takes_values_of_the_registers_dtype(self, function):
        # A host's value column is as wide as the value field (4 bytes) and
        # the value register 8: the kernel widens a call's values once, so
        # ufunc.at never takes NumPy's casting loop (about 25x slower). A
        # burst's columns and a lone packet's both reach it widened.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        engine = make_engine(config, function)
        state = engine.tree(7)
        ufunc = state._ufunc
        given = []

        class Recording:
            @staticmethod
            def at(register, slot, vals):
                given.append((register.dtype, vals.dtype))
                return ufunc.at(register, slot, vals)

        state._ufunc = Recording
        pairs = [(f"widen{i % 5}", 1 if function == "count" else i) for i in range(20)]
        window = data_packets(pairs, config)
        assert window.columns.vals.dtype == np.int32
        kernel_apply(engine, window)
        engine.handle_packet(
            DaietPacket(tree_id=7, src="h0", dst="h1", pairs=(("widen0", 1),), config=config)
        )
        assert len(given) == 2
        assert set(given) == {(np.dtype(np.int64), np.dtype(np.int64))}


def resident_keys(slots: int) -> list[str]:
    """One key per register slot: once they are in, every other key collides."""
    found: dict[int, str] = {}
    for i in itertools.count():
        found.setdefault(hash_key(f"resident{i}", slots), f"resident{i}")
        if len(found) == slots:
            return list(found.values())


_fresh_names = itertools.count()

#: What a seeded bucket may hold besides keys the kernel's windows interned.
#: A key that reached the switch in a packet of its own was interned when
#: the switch read the packet's columns; values at the field's edges are
#: held exactly; a sum that leaves the field refuses the round on both
#: twins, with the same error.
BUCKET_SEEDS = {
    "plain ints": None,
    "a key only a lone packet carried": lambda: (f"unseen{next(_fresh_names)}", 1),
    "a value at the field's top": lambda: ("spill3", 2**31 - 1),
    "a value at the field's bottom": lambda: ("spill4", -(2**31)),
    "a flushed sum leaving the field": lambda: ("spill0", 2**31 - 1),
}

#: What the bucket cannot be seeded with: the constructor refuses the packet
#: that would carry it, so no bucket holds one.
UNCARRIED_VALUES = [True, 2.5, 2**62, -(2**62) - 7]


def strict(pairs) -> list:
    """Pairs with their value types, so ``True`` and ``1`` differ."""
    return [(key, type(value), value) for key, value in pairs]


class TestSpillStream:
    """The kernel's Phase C against the model's stores."""

    @pytest.mark.parametrize("seeded_with", list(BUCKET_SEEDS))
    @settings(max_examples=25, deadline=None)
    @given(
        function=st.sampled_from(FUNCTIONS),
        per=st.integers(2, 5),
        slots=st.integers(1, 4),
        reliable=st.booleans(),
        seed=st.lists(st.tuples(st.integers(0, 11), st.integers(-50, 50)), max_size=4),
        stream=st.lists(
            st.tuples(st.integers(0, 11), st.integers(-50, 50)), min_size=1, max_size=80
        ),
    )
    def test_kid_space_phase_c_is_the_per_pair_replay(
        self, seeded_with, function, per, slots, reliable, seed, stream
    ):
        # Residents claim every slot through lone packets, whose stores then
        # seed the bucket (less than a packet's worth, so it holds them when
        # the kernel starts); every pair of the kernel's burst collides.
        interning.intern_keys([f"spill{k}" for k in range(12)])
        config = DaietConfig(register_slots=slots, pairs_per_packet=per, reliability=reliable)
        fast, slow = twins(config, function)
        trigger = BUCKET_SEEDS[seeded_with]
        held = dict([trigger()] if trigger is not None else [])
        for k, value in seed:
            held.setdefault(f"spill{k}", value)
        held = list(held.items())[: per - 1]
        overflows = seeded_with == "a flushed sum leaving the field" and function in {"sum", "count"}
        if overflows:
            # spill0 merges and its entry flushes within the call.
            stream = [(0, 1), *((k, 1) for k in range(1, per + 1)), *stream]
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
        for engine in (fast, slow):
            assert strict(engine.tree(7).spillover.items()) == strict(
                [(kid(key), value) for key, value in held]
            )
        window = data_packets([(f"spill{k}", v) for k, v in stream], config)
        # Phase C has one path: every collision of the call goes through
        # one kid-space replay.
        replays = []
        spill_columns = fast._spill_columns
        fast._spill_columns = lambda *args: replays.append(1) or spill_columns(*args)

        def slow_apply():
            return [
                (i, port, out)
                for i, packet in enumerate(window)
                for port, out in slow.handle_packet(packet)
            ]

        fast_out, fast_error = refused_or(lambda: list(kernel_apply(fast, window)[0]))
        slow_out, slow_error = refused_or(slow_apply)
        assert len(replays) == 1
        # A flushed sum the value field cannot hold refuses the round on both
        # twins, at the same flush, with the same error.
        assert fast_error == slow_error
        if overflows:
            assert fast_error == f"value {2**31} does not fit in 4 bytes"
        if fast_error is not None:
            return
        # Positions, packets and their order; values with their types.
        assert fast_out == slow_out
        assert [strict(out.pairs) for _i, _port, out in fast_out] == [
            strict(out.pairs) for _i, _port, out in slow_out
        ]
        fast_state, slow_state = fast.tree(7), slow.tree(7)
        assert strict(fast_state.spillover.items()) == strict(slow_state.spillover.items())
        assert_twins_identical(fast, slow)
        assert fast_state._next_seq == slow_state._next_seq
        assert {seq: w[i] for seq, (w, i) in fast_state._sent.unacked.items()} == {
            seq: w[i] for seq, (w, i) in slow_state._sent.unacked.items()
        }
        for _i, _port, out in fast_out:  # what is buffered is what went out
            if reliable:
                window_of, index = fast_state._sent.unacked[out.seq]
                assert window_of[index] is out
        assert refused_or(lambda: fast.handle_packet(end_packet_for(config))) == refused_or(
            lambda: slow.handle_packet(end_packet_for(config))
        )
        assert_twins_identical(fast, slow)

    @pytest.mark.parametrize("value", UNCARRIED_VALUES, ids=repr)
    def test_the_bucket_is_never_seeded_with_what_the_field_cannot_hold(self, value):
        # The packet that would store one of these is refused by the
        # constructor and by the packetizer, so no bucket ever holds one.
        config = DaietConfig(register_slots=1, pairs_per_packet=3)
        with pytest.raises(PacketFormatError, match="value"):
            DaietPacket(tree_id=7, src="h0", dst="h1", pairs=(("spill1", value),), config=config)
        with pytest.raises(PacketFormatError, match="value"):
            data_packets([("spill1", 1), ("spill1", value)], config)


def refused_or(run):
    """``(run(), None)``, or ``(None, message)`` when it raises ``PacketFormatError``."""
    try:
        return run(), None
    except PacketFormatError as exc:
        return None, str(exc)


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

        def run_of(seqs, at=0):
            """The window's items ``seqs`` (the rest lost in flight), at
            merged positions from ``at`` on."""
            plan = stream.burst_plan()
            plan.drop([i for i in range(len(stream)) if i not in seqs])
            return _window_run(plan, 0, range(at, at + len(seqs)))

        def refused(*runs):
            return engine._fresh_run(state, "h0", list(runs))

        def admitted(*seqs):
            at = refused(run_of(seqs))
            return len(seqs) if at is None else at

        assert window.high_water == 7
        assert admitted(8, 9, 12) == 3  # the items lost in between do not count
        assert admitted(*range(8, 20)) == 12
        assert admitted(7) == 0  # the highest number seen: a duplicate
        assert admitted(5, 8) == 0  # a gap-fill
        unsequenced = data_packets([("k", 1)] * 6, self.CONFIG)
        assert engine._fresh_run(
            state, "h0", [_window_run(unsequenced.burst_plan(), 0, range(3))]
        ) is None
        assert unsequenced.built == {}  # answered without building a packet
        # A source's lone packets and windows, in arrival order: each number
        # above the ones before it, none among another run's positions.
        assert refused(_packet_run(stream[8], 0), _packet_run(stream[9], 1)) is None
        assert refused(_packet_run(stream[9], 0), _packet_run(stream[8], 1)) == 1
        assert refused(run_of((8, 9)), _packet_run(stream[12], 2)) is None
        assert refused(run_of((8, 9)), _packet_run(stream[9], 2)) == 2  # a duplicate
        assert refused(run_of((8, 10)), _packet_run(stream[9], 1)) == 1  # interleaved
        object.__setattr__(stream[10], "ecn", True)
        assert admitted(8, 10, 11) == 1
        assert admitted(8, 9, 11) == 3  # the marked packet is not in this run
        assert refused(_packet_run(stream[8], 0), _packet_run(stream[10], 1)) == 1
        window.end_seq = 15  # a stashed END: the stream waits for its gap
        assert admitted(8) == 0
        assert refused(_packet_run(stream[8], 0)) == 0

    @pytest.mark.parametrize("ack_window", [1, 3, 8])
    def test_kernel_plus_accept_run_is_process_data(self, ack_window):
        # A window that starts behind a hole (seq 0 lost) and has a second
        # hole further on; small registers so spillover flushes interleave
        # with the ACKs. The fast twin takes the window as a switch's burst
        # handler does, in one batch; the slow one packet by packet.
        config = DaietConfig(
            register_slots=8, pairs_per_packet=3, reliability=True, ack_window=ack_window
        )
        rng = random.Random(ack_window)
        pairs = [(f"k{rng.randrange(40)}", rng.randrange(-9, 9)) for _ in range(150)]
        window = sequenced_packets(pairs, config)
        fast, slow = twins(config)
        slow_out = []
        for packet in window:
            if packet.seq not in (0, 17):
                slow_out.extend(slow.handle_packet(packet))
        state = fast.tree(7)
        plan = window.burst_plan()
        plan.drop([0, 17])  # lost in flight, as ``_transmit_burst`` drops them
        # Holes do not stop a run: every number is above the ones before it.
        assert fast._fresh_run(state, "h0", [_window_run(plan, 0, plan.items)]) is None
        batch = fast.start_batch(plan, 0, 0, fits=lambda nbytes, cost, ingress: True)
        counts, _nbytes, emitted = batch.take(np.zeros(len(plan.items), dtype=np.int64))
        assert counts == [len(plan.items)]
        # Spillover flushes, then the ACK, per item: as _process_data emits.
        fast_out = packets_of(out for i in sorted(emitted) for out in emitted[i])
        assert fast_out == slow_out
        assert any(out.__class__.__name__ == "DaietAck" for _port, out in fast_out)
        assert_twins_identical(fast, slow)
        fast_window, slow_window = state.window("h0"), slow.tree(7).window("h0")
        assert (fast_window.cumulative, fast_window.out_of_order, fast_window.since_ack) == (
            slow_window.cumulative,
            slow_window.out_of_order,
            slow_window.since_ack,
        )


class TestLonePacketBatches:
    """Lone DATA packets in a batch: which ones join, where their stream
    cuts the batch, and that a batch leaves what per-packet delivery leaves."""

    CONFIG = DaietConfig(register_slots=8, pairs_per_packet=3, reliability=True, ack_window=2)

    @staticmethod
    def fits(max_ops: int | None = None):
        return lambda nbytes, cost, ingress: max_ops is None or cost <= max_ops

    def lone(self, count: int, seq_start: int = 0, tree_id: int = 7) -> list[DaietPacket]:
        """``count`` packets of a sequenced window, each sent alone."""
        rng = random.Random(seq_start)
        pairs = [(f"k{rng.randrange(30)}", rng.randrange(1, 9)) for _ in range(3 * count)]
        window = packetize_pairs(
            pairs, tree_id=tree_id, src="h0", dst="h1", config=self.CONFIG,
            include_end=False, seq_start=seq_start,
        )
        return [window[i] for i in range(count)]

    def take_twins(self, head, members, monkeypatch):
        """Batch ``members`` behind ``head`` on one engine, deliver each
        packet alone on its twin; return both engines and what each packet
        emitted (the batch's per merged position), plus the batch's counts
        and kernel calls."""
        calls = []
        vector_apply = DaietAggregationEngine._vector_apply
        monkeypatch.setattr(
            DaietAggregationEngine,
            "_vector_apply",
            lambda engine, *args: calls.append(args[3]) or vector_apply(engine, *args),
        )
        fast, slow = twins(self.CONFIG)
        batch = fast.start_packet_batch(head, 1, self.fits())
        assert batch is not None
        assert all(batch.join_packet(packet, 1) for packet in members)
        counts, nbytes, emitted = batch.take(np.arange(1 + len(members)))
        taken = sum(counts)
        assert nbytes == sum(packet.wire_bytes() for packet in [head, *members][:taken])
        fast_out = [packets_of(emitted.get(i, [])) for i in range(taken)]
        fast_out += [fast.handle_packet(packet) for packet in members[taken - 1 :]]
        slow_out = [slow.handle_packet(packet) for packet in [head, *members]]
        assert fast_out == slow_out
        assert_twins_identical(fast, slow)
        fast_stream, slow_stream = fast.tree(7).window("h0"), slow.tree(7).window("h0")
        assert vars_of(fast_stream) == vars_of(slow_stream)
        return counts, calls

    def test_a_run_of_one_sources_lone_packets_is_one_kernel_call(self, monkeypatch):
        packets = self.lone(7)
        counts, calls = self.take_twins(packets[0], packets[1:], monkeypatch)
        assert counts == [1] * 7
        assert calls == [7]  # the twin walks its packets one by one

    @pytest.mark.parametrize("case", ["ce_marked", "duplicate", "gap_fill"])
    def test_the_stream_cuts_the_batch_at_a_refused_member(self, case, monkeypatch):
        packets = self.lone(6)
        if case == "ce_marked":
            object.__setattr__(packets[3], "ecn", True)
            members = packets[1:4]
        elif case == "duplicate":
            members = [packets[1], packets[2], packets[2]]
        else:  # a gap-fill: 3 arrives before 2
            members = [packets[1], packets[3], packets[2]]
        counts, _calls = self.take_twins(packets[0], members, monkeypatch)
        assert counts == [1, 1, 1, 0]

    @pytest.mark.parametrize("case", ["ce_marked", "duplicate", "gap_fill", "stashed_end"])
    def test_a_refused_packet_starts_no_batch(self, case):
        engine = make_engine(self.CONFIG)
        packets = self.lone(6)
        stream = engine.tree(7).window("h0")
        for seq in (0, 1, 3):
            stream.observe(seq)
        head = {
            "ce_marked": packets[4],
            "duplicate": packets[1],
            "gap_fill": packets[2],
            "stashed_end": packets[4],
        }[case]
        if case == "ce_marked":
            object.__setattr__(head, "ecn", True)
        if case == "stashed_end":
            stream.end_seq = 5
        assert engine.start_packet_batch(head, 1, self.fits()) is None
        fresh_starts = engine.start_packet_batch(packets[5], 1, self.fits()) is not None
        assert fresh_starts == (case != "stashed_end")

    def test_what_a_batch_refuses_to_join_or_start(self):
        engine = make_engine(self.CONFIG)
        engine.configure_tree(8, "sum", 1, 0, "h1", config=self.CONFIG, child_ports={"h0": 1})
        head, fresh = self.lone(2)
        budget = self.fits(max_ops=steer_ops(2))  # one op short of three pairs
        end = DaietPacket(
            tree_id=7, src="h0", dst="h1", packet_type=DaietPacketType.END,
            config=self.CONFIG, seq=9,
        )
        ack = DaietAck(tree_id=7, src="h1", dst="tor", cumulative=0)
        pull = DaietAck(tree_id=7, src="h1", dst="tor", pull=True)
        other_tree = self.lone(1, seq_start=4, tree_id=8)[0]
        for packet in (end, ack, pull):
            assert engine.start_packet_batch(packet, 1, self.fits()) is None
        assert engine.start_packet_batch(head, 1, budget) is None  # over budget
        batch = engine.start_packet_batch(head, 1, self.fits())
        for packet in (end, ack, pull, other_tree):
            assert not batch.join_packet(packet, 1)
        assert batch.passes(ack) and not batch.passes(pull)
        assert not WindowBatch(engine, engine.tree(7), budget).join_packet(fresh, 1)
        assert batch.join_packet(fresh, 1)


def vars_of(stream) -> tuple:
    """A stream window's whole state."""
    return (
        stream.cumulative,
        tuple(stream.out_of_order),
        stream.end_seq,
        stream.since_ack,
        stream.edge,
    )


def register_walk(engine: DaietAggregationEngine) -> list:
    """The pairs the final flush's walk emits, read without touching the state.

    Spillover first, then each occupied slot from the last one claimed down,
    valued at its value register cell.
    """
    state = engine.tree(7)
    slots = list(reversed(state.index_stack.peek_all()))
    spilled = state.spillover
    kids = list(spilled) + state.key_register[slots].tolist()
    values = list(spilled.values()) + state.value_register[slots].tolist()
    return list(zip(interning.keys_of(kids), values))


def flushed_pairs(emissions) -> list:
    return [
        pair
        for _port, packet in packets_of(emissions)
        if packet.packet_type is DaietPacketType.DATA
        for pair in packet.pairs
    ]


class TestColumnFlush:
    """A tree's final flush is cut from its registers' own columns."""

    @settings(max_examples=80, deadline=None)
    @given(
        slots=st.integers(1, 16),
        per=st.integers(1, 5),
        bursts=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(
                    # 72 values of at most 2**24: no sum leaves the field.
                    st.tuples(st.integers(0, 30), st.integers(-(2**24), 2**24)),
                    min_size=1,
                    max_size=12,
                ),
            ),
            max_size=6,
        ),
    )
    def test_column_flush_emits_what_the_walk_emits(self, slots, per, bursts):
        # Kernel bursts and packets the model walks claim slots in any mix
        # (the model keeps no memo; the kernel judges a kid it has no
        # verdict for from the key register). The flush emits the walk's
        # pairs in the walk's order, and leaves the registers free.
        config = DaietConfig(register_slots=slots, pairs_per_packet=per)
        engine = make_engine(config, walk=True)
        for through_kernel, pairs in bursts:
            window = data_packets([(f"col{k}", v) for k, v in pairs], config)
            if through_kernel:
                kernel_apply(engine, window)
            else:
                feed_slow(engine, [window])
        state = engine.tree(7)
        walk = register_walk(engine)
        out = engine._flush_all(state)
        [(_port, window)] = out
        if type(window) is PacketWindow:  # not the lone END of empty registers
            assert type(window.pairs) is _ColumnPairs  # cut from columns, not pairs
        assert flushed_pairs(out) == walk
        assert len(state.index_stack.peek_all()) == 0
        assert set(state.key_register.tolist()) == {-1}
        assert set(state.value_register.tolist()) == {0}

    def test_a_key_only_a_lone_packet_carried_flushes_from_columns(self):
        # A packet the constructor built (no window interned its keys): its
        # columns intern the key when the switch reads them, so the final
        # flush reads its kid from the key register like any other.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        engine = make_engine(config)
        fresh = f"col-only{next(_fresh_names)}"
        engine.handle_packet(
            DaietPacket(tree_id=7, src="h0", dst="h1", pairs=((fresh, 3),), config=config)
        )
        kid = interning.intern_key(fresh)  # already interned: returns its kid
        assert kid == interning.pool_size() - 1
        assert kid in engine.tree(7).key_register.tolist()
        feed_slow(engine, [data_packets([("col1", 2), ("col2", 5)], config)])
        walk = register_walk(engine)
        out = engine._flush_all(engine.tree(7))
        [(_port, window)] = out
        assert type(window.pairs) is _ColumnPairs  # cut from the kid register
        assert flushed_pairs(out) == walk

    @pytest.mark.parametrize("function", ["min", "max", "or", "and", "count"])
    def test_every_tree_drains_from_columns(self, function):
        # The constructor refuses a float, and every function's cells hold
        # ints within int64 (MIN, MAX, OR and AND of 4-byte ints stay 4-byte
        # ints), so every tree drains from its key and value registers.
        config = DaietConfig(register_slots=8, pairs_per_packet=4)
        with pytest.raises(PacketFormatError, match="value 2.5 is a float"):
            DaietPacket(tree_id=7, src="h0", dst="h1", pairs=(("colf", 2.5),), config=config)
        engine = DaietAggregationEngine("tor")
        engine.configure_tree(
            tree_id=7, function=function, num_children=1, egress_port=0,
            next_hop_dst="h1", config=config,
        )
        rng = random.Random(function)
        pairs = [(f"col{rng.randrange(12)}", rng.randrange(-(2**31), 2**31)) for _ in range(40)]
        if function == "count":
            pairs = [(key, 1) for key, _value in pairs]
        feed_slow(engine, [data_packets(pairs, config)])
        walk = register_walk(engine)
        out = engine._flush_all(engine.tree(7))
        [(_port, window)] = out
        assert type(window.pairs) is _ColumnPairs  # cut from the kid register
        assert flushed_pairs(out) == walk
        state = engine.tree(7)
        assert set(state.key_register.tolist()) == {-1}
        assert set(state.value_register.tolist()) == {0}

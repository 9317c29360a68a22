"""Property-based tests for the correctness invariant of in-network aggregation.

The key correctness property of DAIET (Section 1: "the correctness of the
overall computation is not affected") is that, because the aggregation function
is commutative and associative, the reducer obtains the same final per-key
values no matter how the pairs were split into packets, in which order packets
arrive, how small the switch register array is, or how many collisions spill
over.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.aggregation import DaietAggregationEngine
from repro.core.config import DaietConfig
from repro.core.functions import SUM, MIN, aggregate_pairs
from repro.core.packet import DaietPacketType, packetize_pairs

keys = st.sampled_from([f"key{i:02d}" for i in range(40)])
values = st.integers(min_value=-10_000, max_value=10_000)
pair_lists = st.lists(st.tuples(keys, values), max_size=120)


def run_through_switch(
    pairs_per_mapper: list[list[tuple[str, int]]],
    slots: int,
    pairs_per_packet: int,
    function_name: str = "sum",
    shuffle_seed: int | None = None,
) -> dict[str, int]:
    """Send each mapper's pairs through one switch and merge what it emits."""
    config = DaietConfig(register_slots=slots, pairs_per_packet=pairs_per_packet)
    engine = DaietAggregationEngine("sw")
    engine.configure_tree(
        tree_id=1,
        function=function_name,
        num_children=len(pairs_per_mapper),
        egress_port=0,
        next_hop_dst="reducer",
        config=config,
    )
    packets = []
    for mapper_id, pairs in enumerate(pairs_per_mapper):
        packets.extend(
            packetize_pairs(
                pairs, tree_id=1, src=f"m{mapper_id}", dst="reducer", config=config
            )
        )
    if shuffle_seed is not None:
        # Packet order across mappers may interleave arbitrarily, but END
        # packets must still follow their own mapper's data (FIFO per flow).
        rng = random.Random(shuffle_seed)
        per_mapper = {}
        for packet in packets:
            per_mapper.setdefault(packet.src, []).append(packet)
        interleaved = []
        sources = list(per_mapper)
        while any(per_mapper[s] for s in sources):
            source = rng.choice([s for s in sources if per_mapper[s]])
            interleaved.append(per_mapper[source].pop(0))
        packets = interleaved

    emitted = []
    for packet in packets:
        emitted.extend(out for _port, out in engine.handle_packet(packet))

    # The reducer-side merge: apply the same aggregation function once more.
    function = SUM if function_name == "sum" else MIN
    received = [pair for p in emitted if p.packet_type is DaietPacketType.DATA for pair in p.pairs]
    return aggregate_pairs(received, function)


class TestEndToEndCorrectness:
    @settings(max_examples=50, deadline=None)
    @given(pairs=pair_lists, slots=st.sampled_from([4, 16, 64, 1024]))
    def test_sum_matches_reference_regardless_of_register_size(self, pairs, slots):
        expected = aggregate_pairs(pairs, SUM)
        result = run_through_switch([pairs], slots=slots, pairs_per_packet=10)
        assert result == expected

    @settings(max_examples=50, deadline=None)
    @given(
        pairs=pair_lists,
        pairs_per_packet=st.sampled_from([1, 3, 10]),
    )
    def test_sum_matches_reference_regardless_of_packetization(self, pairs, pairs_per_packet):
        expected = aggregate_pairs(pairs, SUM)
        result = run_through_switch([pairs], slots=32, pairs_per_packet=pairs_per_packet)
        assert result == expected

    @settings(max_examples=40, deadline=None)
    @given(
        mapper_pairs=st.lists(pair_lists, min_size=1, max_size=4),
        seed=st.integers(0, 1000),
    )
    def test_sum_correct_for_any_mapper_interleaving(self, mapper_pairs, seed):
        expected = aggregate_pairs([p for pairs in mapper_pairs for p in pairs], SUM)
        result = run_through_switch(
            mapper_pairs, slots=16, pairs_per_packet=5, shuffle_seed=seed
        )
        assert result == expected

    @settings(max_examples=40, deadline=None)
    @given(pairs=pair_lists)
    def test_min_matches_reference(self, pairs):
        expected = aggregate_pairs(pairs, MIN)
        result = run_through_switch([pairs], slots=8, pairs_per_packet=10, function_name="min")
        assert result == expected

    @settings(max_examples=30, deadline=None)
    @given(pairs=pair_lists, slots=st.sampled_from([2, 8, 64]))
    def test_emitted_pair_count_never_exceeds_input(self, pairs, slots):
        config = DaietConfig(register_slots=slots, pairs_per_packet=10)
        engine = DaietAggregationEngine("sw")
        engine.configure_tree(
            tree_id=1, function="sum", num_children=1, egress_port=0,
            next_hop_dst="r", config=config,
        )
        emitted = []
        for packet in packetize_pairs(pairs, tree_id=1, src="m", dst="r", config=config):
            emitted.extend(out for _port, out in engine.handle_packet(packet))
        emitted_pairs = sum(len(p.pairs) for p in emitted)
        assert emitted_pairs <= len(pairs)
        counters = engine.tree(1).counters
        assert counters.pairs_emitted == emitted_pairs
        assert counters.pairs_received == len(pairs)

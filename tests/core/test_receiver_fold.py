"""The reducer's columnar fold against the pair-by-pair dict fold.

``DaietReceiver`` keeps each DATA packet's extent of its partition's
columns and folds them only when :meth:`~DaietReceiver.result` is asked.
:class:`PairByPairReceiver` below is the receiver as it was, one pair at a
time into a dict, and it is the model: whatever the stream (window packets
and constructor-built packets, every registered function, duplicates, other
trees, ``result()`` and ``reset()`` mid-stream), the two must give the same
dicts, in the same key order, with the same value types.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import daiet
from repro.core.config import DaietConfig
from repro.core.daiet import DaietReceiver, ReceiverCounters
from repro.core.errors import AggregationError
from repro.core.functions import _REGISTRY, AggregationFunction
from repro.core.packet import (
    VALUE_LIMIT,
    VALUE_MIN,
    DaietPacket,
    DaietPacketType,
    packetize_columns,
    packetize_pairs,
)
from repro.dataplane import interning

_MISSING = object()


class PairByPairReceiver:
    """The model: every arriving pair folded into the dict as it arrives."""

    def __init__(self, tree_id: int, function: AggregationFunction) -> None:
        self.tree_id = tree_id
        self.function = function
        self.counters = ReceiverCounters()
        self.values: dict = {}

    def receive(self, packet) -> None:
        if packet.tree_id != self.tree_id:
            return
        counters = self.counters
        counters.packets += 1
        counters.wire_bytes += packet.wire_bytes()
        counters.payload_bytes += packet.payload_bytes()
        if packet.packet_type is DaietPacketType.END:
            counters.end_packets += 1
            return
        counters.data_packets += 1
        counters.pairs += len(packet.pairs)
        for key, value in packet.pairs:
            current = self.values.get(key, _MISSING)
            self.values[key] = value if current is _MISSING else self.function(current, value)

    def reset(self, tree_id: int) -> None:
        self.tree_id = tree_id
        self.values.clear()


CONFIG = DaietConfig(pairs_per_packet=3)
KEYS = ["fold-a", "fold-b", b"fold-a", "fold-é", "fold-nul\x00", b"fold-z", "fold-c"]
values_strategy = st.integers(min_value=VALUE_MIN, max_value=VALUE_LIMIT - 1)
pairs_strategy = st.lists(st.tuples(st.sampled_from(KEYS), values_strategy), max_size=10)
op_strategy = st.one_of(
    st.tuples(st.just("hosts"), pairs_strategy),  # a host window, in order
    st.tuples(st.just("switch"), pairs_strategy),  # a switch flush window
    st.tuples(st.just("packet"), pairs_strategy.map(lambda pairs: pairs[:3])),
    st.tuples(st.just("again"), st.integers(0, 50)),  # a packet delivered before
    st.tuples(st.just("other-tree"), pairs_strategy),
    st.tuples(st.just("result"), st.none()),
    st.tuples(st.just("reset"), st.none()),
)


def _switch_window(pairs, tree_id):
    # A switch cuts a flush from its int64 register columns.
    kids = np.array([interning.intern_key(key) for key, _value in pairs], dtype=np.int64)
    vals = np.array([value for _key, value in pairs], dtype=np.int64)
    return packetize_columns(kids, vals, tree_id, "s", "r", CONFIG)


def _packets(op, arg, tree_id, delivered):
    if op == "hosts":
        return list(packetize_pairs(arg, tree_id, "m", "r", CONFIG))
    if op == "switch":
        return list(_switch_window(arg, tree_id))
    if op == "packet":
        return [DaietPacket(tree_id, "m", "r", DaietPacketType.DATA, tuple(arg), CONFIG)]
    if op == "again":
        return [delivered[arg % len(delivered)]] if delivered else []
    return list(packetize_pairs(arg, tree_id + 1, "m", "r", CONFIG))


def _same(got: dict, want: dict) -> None:
    assert got == want
    assert list(got) == list(want)  # first-arrival order
    assert [type(value) for value in got.values()] == [type(value) for value in want.values()]


class TestReceiverFold:
    @pytest.mark.parametrize("fold_pairs", [None, 4], ids=["exact-bound", "folds-often"])
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(_REGISTRY)),
        ops=st.lists(op_strategy, max_size=12),
    )
    def test_matches_the_pair_by_pair_fold(self, fold_pairs, name, ops):
        function = _REGISTRY[name]
        bound = daiet._FOLD_PAIRS if fold_pairs is None else fold_pairs
        with mock.patch.object(daiet, "_FOLD_PAIRS", bound):
            receiver = DaietReceiver("r", 5, function, expected_ends=1)
            model = PairByPairReceiver(5, function)
            delivered = []
            tree_id = 5
            for op, arg in ops:
                if op == "result":
                    _same(receiver.result(), model.values)
                    continue
                if op == "reset":
                    tree_id += 2
                    receiver.reset(tree_id, expected_ends=1)
                    model.reset(tree_id)
                    continue
                for packet in _packets(op, arg, tree_id, delivered):
                    receiver.receive(packet)
                    model.receive(packet)
                    delivered.append(packet)
            _same(receiver.result(), model.values)
            assert receiver.counters == model.counters

    def test_a_window_in_order_is_one_extent_and_keys_come_back_once(self, monkeypatch):
        pairs = [(f"once-{i % 7}", i) for i in range(40)]
        window = _switch_window(pairs, 5)
        receiver = DaietReceiver("r", 5, _REGISTRY["sum"], expected_ends=1)
        read = []
        keys_of = interning.keys_of
        monkeypatch.setattr(
            interning, "keys_of", lambda kids: read.append(len(kids)) or keys_of(kids)
        )
        for packet in window:
            receiver.receive(packet)
        assert len(receiver._pending) == 1 and read == []
        assert receiver.result() == {f"once-{k}": sum(range(k, 40, 7)) for k in range(7)}
        assert read == [7]  # one key per distinct kid, in result()
        assert receiver._pending == [] and receiver.counters.pairs == 40

    def test_a_sum_past_64_bits_stays_exact(self):
        # Each fold is an int64 sum of at most _FOLD_PAIRS values; what the
        # folds add up to is a Python int (a held value stands in for the
        # 2**32 pairs it takes to leave 64 bits).
        top = VALUE_LIMIT - 1
        receiver = DaietReceiver("r", 5, _REGISTRY["sum"], expected_ends=1)
        receiver._values["wide"] = 2**70
        window = packetize_pairs([("wide", top)] * 30, 5, "m", "r", CONFIG)
        with mock.patch.object(daiet, "_FOLD_PAIRS", 8):
            for packet in window:
                receiver.receive(packet)
                assert receiver._pending_pairs <= 8
            assert receiver.result() == {"wide": 2**70 + 30 * top}

    def test_only_a_registered_function_folds(self):
        with pytest.raises(AggregationError, match="registered functions"):
            DaietReceiver("r", 5, AggregationFunction("xor", lambda a, b: a ^ b), 1)

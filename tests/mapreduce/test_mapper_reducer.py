"""Unit tests for map and reduce task execution."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.core.errors import JobError, PacketFormatError
from repro.mapreduce.mapper import MapTask
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.reducer import ReduceTask
from repro.mapreduce.wordcount import make_wordcount_job


@pytest.fixture()
def spec():
    return make_wordcount_job(num_mappers=2, num_reducers=3)


class TestMapTask:
    def test_map_output_partitions_cover_all_pairs(self, spec):
        task = MapTask(mapper_id=0, host="w0", spec=spec)
        output = task.run(["apple banana apple", "cherry banana"])
        assert output.records_processed == 2
        assert output.pairs_emitted == 5
        total = sum(len(pairs) for pairs in output.partitions.values())
        assert total == 5
        partitioner = HashPartitioner(3)
        for reducer_id, pairs in output.partitions.items():
            assert all(partitioner(key) == reducer_id for key, _ in pairs)

    def test_sorted_partition_is_sorted(self, spec):
        task = MapTask(mapper_id=0, host="w0", spec=spec)
        output = task.run(["zebra apple zebra mango"])
        for reducer_id in output.partitions:
            sorted_pairs = output.sorted_partition(reducer_id)
            assert sorted_pairs == sorted(sorted_pairs)

    @pytest.mark.parametrize(
        ("pair", "message"),
        [
            (("x" * 17, 1), "key 'xxxxxxxxxxxxxxxxx' is 17 B, exceeding the fixed key width of 16 B"),
            (("\u00e9" * 9, 1), "key '\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9' is 18 B, exceeding"),
            (("k", 2**40), "value 1099511627776 does not fit in 4 bytes"),
            (("k", 2**31), "value 2147483648 does not fit in 4 bytes"),
            (("k", -(2**31) - 1), "value -2147483649 does not fit in 4 bytes"),
            (("k", 2.5), "value 2.5 is a float; values are int"),
            (("k", 1.0), "value 1.0 is a float; values are int"),
            (("k", True), "value True is a bool; values are int"),
        ],
        ids=[
            "long-key", "long-utf8-key", "value-2**40", "value-2**31", "value-below-int32",
            "value-float", "value-float-integral", "value-bool",
        ],
    )
    def test_a_pair_outside_the_wire_format_is_refused(self, spec, pair, message):
        # The shuffle sizes every pair as key_width + 4 value bytes, so the
        # map task refuses a pair that does not fit, by the packet format's
        # own rule (check_pair), before any shuffle sees it.
        task = MapTask(mapper_id=0, host="w0", spec=replace(spec, map_function=lambda r: [r]))
        with pytest.raises(PacketFormatError, match=re.escape(message)):
            task.run([("ok", 1), pair])

    def test_pairs_at_the_wire_format_limits_are_kept(self, spec):
        pairs = [("x" * 16, 1), ("k", 2**31 - 1), ("k", -(2**31))]
        task = MapTask(mapper_id=0, host="w0", spec=replace(spec, map_function=lambda r: [r]))
        output = task.run(pairs)
        assert sorted(p for part in output.partitions.values() for p in part) == sorted(pairs)

    def test_invalid_mapper_id(self, spec):
        with pytest.raises(JobError):
            MapTask(mapper_id=-1, host="w0", spec=spec)


class TestReduceTask:
    def test_reduce_over_sorted_runs(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        task.add_sorted_run([("apple", 1), ("pear", 1)])
        task.add_sorted_run([("apple", 1), ("zebra", 1)])
        output = task.finish()
        assert output == {"apple": 2, "pear": 1, "zebra": 1}
        assert task.metrics.output_keys == 3
        assert task.metrics.reduce_seconds >= 0.0
        assert task.metrics.pairs_received == 4

    def test_reduce_over_unsorted_pairs(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        task.add_unsorted_pairs([("b", 2), ("a", 1), ("b", 3)])
        assert task.finish() == {"a": 1, "b": 5}

    def test_mixed_sorted_and_unsorted_input(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        task.add_sorted_run([("a", 1), ("c", 1)])
        task.add_unsorted_pairs([("b", 1), ("a", 4)])
        assert task.finish() == {"a": 5, "b": 1, "c": 1}

    def test_local_pairs_counted_separately(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        task.add_unsorted_pairs([("a", 1)], from_network=False)
        task.add_unsorted_pairs([("b", 1)], from_network=True)
        assert task.metrics.local_pairs == 1
        assert task.metrics.pairs_received == 1

    def test_empty_input_produces_empty_output(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        assert task.finish() == {}
        assert task.metrics.output_keys == 0

    def test_cannot_add_after_finish(self, spec):
        task = ReduceTask(reducer_id=0, host="w0", spec=spec)
        task.finish()
        with pytest.raises(JobError):
            task.add_unsorted_pairs([("a", 1)])
        with pytest.raises(JobError):
            task.finish()

    def test_invalid_reducer_id(self, spec):
        with pytest.raises(JobError):
            ReduceTask(reducer_id=-2, host="w0", spec=spec)

"""Unit tests for partitioners and job specifications."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import JobError
from repro.mapreduce.job import JobSpec, ReducerMetrics, TaskPlacement
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.wordcount import make_wordcount_job, wordcount_map, wordcount_reduce


class TestHashPartitioner:
    def test_partitions_in_range_and_deterministic(self):
        partitioner = HashPartitioner(12)
        for key in ("alpha", "beta", "gamma"):
            index = partitioner(key)
            assert 0 <= index < 12
            assert index == partitioner(key)

    def test_roughly_balanced(self):
        partitioner = HashPartitioner(4)
        counts = [0, 0, 0, 0]
        for i in range(4000):
            counts[partitioner(f"word{i}")] += 1
        assert min(counts) > 800

    def test_invalid_partition_count(self):
        with pytest.raises(JobError):
            HashPartitioner(0)

    @given(st.text(min_size=1, max_size=16), st.integers(1, 32))
    def test_always_in_range(self, key, partitions):
        assert 0 <= HashPartitioner(partitions)(key) < partitions


class TestJobSpec:
    def test_wordcount_spec_defaults(self):
        spec = make_wordcount_job()
        assert spec.num_mappers == 24
        assert spec.num_reducers == 12
        assert spec.aggregation == "sum"

    def test_map_and_reduce_functions(self):
        assert list(wordcount_map("a b a")) == [("a", 1), ("b", 1), ("a", 1)]
        assert wordcount_reduce("a", [1, 1, 1]) == 3

    def test_invalid_parallelism(self):
        with pytest.raises(JobError):
            JobSpec(name="x", map_function=wordcount_map, reduce_function=wordcount_reduce,
                    num_mappers=0)
        with pytest.raises(JobError):
            JobSpec(name="x", map_function=wordcount_map, reduce_function=wordcount_reduce,
                    num_reducers=0)


class TestTaskPlacement:
    def test_accessors(self):
        placement = TaskPlacement(mapper_hosts=("w0", "w1", "w0"), reducer_hosts=("w0", "w1"))
        assert placement.num_mappers == 3
        assert placement.num_reducers == 2
        assert placement.mapper_host(2) == "w0"
        assert placement.reducer_host(1) == "w1"
        with pytest.raises(JobError):
            placement.mapper_host(9)

    def test_reducers_must_be_distinct_hosts(self):
        with pytest.raises(JobError):
            TaskPlacement(mapper_hosts=("w0",), reducer_hosts=("w0", "w0"))

    def test_requires_hosts(self):
        with pytest.raises(JobError):
            TaskPlacement(mapper_hosts=(), reducer_hosts=("w0",))


class TestReducerMetrics:
    def test_snapshot_fields(self):
        metrics = ReducerMetrics(reducer_id=1, host="w1", packets_received=5)
        snapshot = metrics.snapshot()
        assert snapshot["reducer_id"] == 1
        assert snapshot["packets_received"] == 5
        assert "reduce_seconds" in snapshot

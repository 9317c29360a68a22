"""Unit tests for the WordCount corpus generator and the cluster builders."""

from __future__ import annotations

import pytest

from repro.core.aggregation import hash_key
from repro.core.errors import JobError
from repro.mapreduce.cluster import build_cluster, default_placement
from repro.mapreduce.partitioner import HashPartitioner
from repro.mapreduce.wordcount import (
    CorpusSpec,
    generate_corpus,
    generate_vocabulary,
)


class TestCorpusGenerator:
    def test_corpus_size_and_vocabulary(self):
        corpus = generate_corpus(total_words=5_000, vocabulary_size=500, num_partitions=4, seed=1)
        assert corpus.total_words == 5_000
        assert len(corpus.vocabulary) == 500
        counts = corpus.word_counts()
        assert sum(counts.values()) == 5_000
        assert set(counts) == set(corpus.vocabulary)

    def test_every_word_respects_key_width(self):
        corpus = generate_corpus(total_words=2_000, vocabulary_size=300, seed=2)
        assert all(1 <= len(word) <= 16 for word in corpus.vocabulary)

    def test_no_register_hash_collisions_within_partitions(self):
        spec = CorpusSpec(
            total_words=3_000,
            vocabulary_size=600,
            num_partitions=4,
            register_slots=4096,
            seed=3,
        )
        vocabulary = generate_vocabulary(spec)
        partitioner = HashPartitioner(4)
        seen: dict[int, set[int]] = {p: set() for p in range(4)}
        for word in vocabulary:
            slot = hash_key(word, 4096)
            partition = partitioner(word)
            assert slot not in seen[partition]
            seen[partition].add(slot)

    def test_splits_cover_all_lines(self):
        corpus = generate_corpus(total_words=1_000, vocabulary_size=100, seed=4)
        splits = corpus.splits(8)
        assert len(splits) == 8
        assert sum(len(s) for s in splits) == len(corpus.lines)

    def test_zipf_distribution_is_skewed(self):
        uniform = generate_corpus(
            total_words=20_000, vocabulary_size=1_000, seed=5, distribution="uniform"
        )
        zipf = generate_corpus(
            total_words=20_000, vocabulary_size=1_000, seed=5, distribution="zipf",
            avoid_register_collisions=False,
        )
        max_uniform = max(uniform.word_counts().values())
        max_zipf = max(zipf.word_counts().values())
        assert max_zipf > 3 * max_uniform

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_words": 0},
            {"vocabulary_size": 0},
            {"total_words": 10, "vocabulary_size": 20},
            {"max_word_length": 32},
            {"distribution": "exponential"},
            {"vocabulary_size": 200_000, "total_words": 300_000, "register_slots": 1024,
             "num_partitions": 2},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(JobError):
            CorpusSpec(**kwargs)

    def test_spec_and_overrides_are_exclusive(self):
        with pytest.raises(JobError):
            generate_corpus(CorpusSpec(), total_words=10)


class TestCluster:
    def test_single_rack_cluster_shape(self):
        cluster = build_cluster(num_workers=6)
        assert len(cluster.workers) == 6
        assert cluster.master_host == "master"
        assert cluster.topology.get("tor") is not None
        assert cluster.workers[2] == "w2"

    def test_leaf_spine_cluster(self):
        cluster = build_cluster(num_workers=6, fabric="leaf_spine", workers_per_leaf=3)
        names = {s.name for s in cluster.topology.switches()}
        assert any(name.startswith("leaf") for name in names)
        assert any(name.startswith("spine") for name in names)

    def test_unknown_fabric_rejected(self):
        with pytest.raises(JobError):
            build_cluster(num_workers=2, fabric="torus")

    def test_default_placement_is_paper_shaped(self):
        cluster = build_cluster(num_workers=12)
        placement = default_placement(cluster, num_mappers=24, num_reducers=12)
        assert placement.num_mappers == 24
        assert placement.num_reducers == 12
        # Two map tasks per worker host.
        for worker in cluster.workers:
            assert placement.mapper_hosts.count(worker) == 2

    def test_placement_rejects_too_many_reducers(self):
        cluster = build_cluster(num_workers=4)
        with pytest.raises(JobError):
            default_placement(cluster, num_mappers=8, num_reducers=5)

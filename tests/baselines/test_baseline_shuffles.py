"""Unit tests specific to the baseline shuffle transports."""

from __future__ import annotations

import pytest

from repro.baselines.tcp_shuffle import TcpShuffle
from repro.baselines.udp_shuffle import UdpShuffle
from repro.core.config import DaietConfig
from repro.core.errors import JobError
from repro.mapreduce.cluster import build_cluster, default_placement
from repro.mapreduce.master import MapReduceMaster
from repro.mapreduce.wordcount import generate_corpus, make_wordcount_job


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(total_words=4_000, vocabulary_size=500, num_partitions=2, seed=23)


def run(shuffle, corpus, num_workers=3, num_mappers=3, num_reducers=2):
    cluster = build_cluster(num_workers=num_workers)
    spec = make_wordcount_job(num_mappers=num_mappers, num_reducers=num_reducers)
    placement = default_placement(cluster, num_mappers, num_reducers)
    master = MapReduceMaster(cluster, spec, shuffle, placement)
    return master.run(corpus.splits(num_mappers))


class TestTcpShuffle:
    def test_segments_respect_mss(self, corpus):
        small = run(TcpShuffle(mss=256), corpus)
        large = run(TcpShuffle(mss=4096), corpus)
        assert small.output == large.output == corpus.word_counts()
        assert small.total_reducer_packets() > large.total_reducer_packets()
        # Byte volume at the application level is MSS-independent.
        assert small.total_reducer_bytes() == large.total_reducer_bytes()

    def test_transfer_before_prepare_rejected(self):
        shuffle = TcpShuffle()
        with pytest.raises(JobError):
            shuffle.transfer([])

    def test_reducers_receive_one_sorted_run_per_remote_mapper(self, corpus):
        result = run(TcpShuffle(), corpus, num_workers=3, num_mappers=3, num_reducers=2)
        # 3 map tasks on 3 hosts; each reducer host co-locates one mapper, so
        # it receives 2 remote runs; local pairs are accounted separately.
        for metrics in result.reducer_metrics.values():
            assert metrics.pairs_received > 0
            assert metrics.local_pairs > 0


class TestUdpShuffle:
    def test_udp_packets_are_small_and_many(self, corpus):
        udp = run(UdpShuffle(), corpus)
        tcp = run(TcpShuffle(), corpus)
        assert udp.output == corpus.word_counts()
        # The DAIET wire format without aggregation generates far more packets
        # than MSS-sized TCP segments for the same data.
        assert udp.total_reducer_packets() > 3 * tcp.total_reducer_packets()

    def test_pairs_per_packet_limit_respected(self, corpus):
        config = DaietConfig(pairs_per_packet=4)
        result = run(UdpShuffle(config=config), corpus)
        assert result.output == corpus.word_counts()

    def test_transfer_before_prepare_rejected(self):
        with pytest.raises(JobError):
            UdpShuffle().transfer([])

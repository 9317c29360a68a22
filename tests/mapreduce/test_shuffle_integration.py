"""Integration tests: the full WordCount job over every shuffle transport.

These are the end-to-end correctness tests of the reproduction: the job output
must equal the ground-truth word counts no matter which shuffle path carried
the intermediate data, and the relative traffic metrics must follow the
paper's ordering (DAIET ≪ UDP baseline; DAIET < TCP baseline).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.error_bounds import install_error_tracker, true_error_l1
from repro.baselines import HostAggregationShuffle, TcpShuffle, UdpShuffle
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.core.errors import ControllerError, JobError
from repro.experiments.figure3_wordcount import Figure3Settings
from repro.mapreduce.cluster import build_cluster, default_placement
from repro.mapreduce.master import MapReduceMaster
from repro.mapreduce.shuffle import DaietShuffle
from repro.mapreduce.wordcount import generate_corpus, make_wordcount_job

NUM_WORKERS = 4
NUM_MAPPERS = 8
NUM_REDUCERS = 4


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(
        total_words=8_000, vocabulary_size=1_000, num_partitions=NUM_REDUCERS, seed=17
    )


def run_job(shuffle, corpus, register_slots: int = 4096, loss_rate: float = 0.0):
    cluster = build_cluster(num_workers=NUM_WORKERS, loss_rate=loss_rate, loss_seed=29)
    spec = make_wordcount_job(
        num_mappers=NUM_MAPPERS,
        num_reducers=NUM_REDUCERS,
        daiet=DaietConfig(register_slots=register_slots),
    )
    placement = default_placement(cluster, NUM_MAPPERS, NUM_REDUCERS)
    master = MapReduceMaster(cluster, spec, shuffle, placement)
    return master.run(corpus.splits(NUM_MAPPERS))


class TestCorrectness:
    @pytest.mark.parametrize(
        "shuffle_factory",
        [
            lambda: TcpShuffle(),
            lambda: UdpShuffle(),
            lambda: DaietShuffle(DaietConfig(register_slots=4096)),
            lambda: HostAggregationShuffle(),
        ],
        ids=["tcp", "udp", "daiet", "host_agg"],
    )
    def test_output_matches_ground_truth(self, corpus, shuffle_factory):
        result = run_job(shuffle_factory(), corpus)
        assert result.output == corpus.word_counts()
        assert result.map_output_pairs == corpus.total_words

    @pytest.mark.parametrize("loss_rate", [0.01, 0.05])
    def test_daiet_shuffle_exact_over_lossy_uplinks(self, corpus, loss_rate):
        # The acceptance scenario: WordCount end-to-end with 1%/5% loss on
        # every host uplink produces output identical to the lossless run,
        # thanks to the reliability layer.
        shuffle = DaietShuffle(DaietConfig(register_slots=4096, reliability=True))
        result = run_job(shuffle, corpus, loss_rate=loss_rate)
        assert result.output == corpus.word_counts()

    def test_daiet_correct_even_with_tiny_registers(self, corpus):
        # With only 64 slots most pairs collide and spill over; the output
        # must still be exact.
        result = run_job(DaietShuffle(DaietConfig(register_slots=64)), corpus, register_slots=64)
        assert result.output == corpus.word_counts()


class TestTrafficShape:
    @pytest.fixture(scope="class")
    def results(self, corpus):
        return {
            "tcp": run_job(TcpShuffle(), corpus),
            "udp": run_job(UdpShuffle(), corpus),
            "daiet": run_job(DaietShuffle(DaietConfig(register_slots=4096)), corpus),
            "host_agg": run_job(HostAggregationShuffle(), corpus),
        }

    def test_daiet_reduces_data_volume(self, results):
        daiet_bytes = results["daiet"].total_reducer_bytes()
        tcp_bytes = results["tcp"].total_reducer_bytes()
        assert daiet_bytes < 0.4 * tcp_bytes

    def test_daiet_reduces_packets_vs_udp(self, results):
        assert (
            results["daiet"].total_reducer_packets()
            < 0.4 * results["udp"].total_reducer_packets()
        )

    def test_udp_baseline_has_most_packets(self, results):
        packets = {name: r.total_reducer_packets() for name, r in results.items()}
        assert packets["udp"] == max(packets.values())

    def test_host_aggregation_is_between_tcp_and_daiet(self, results):
        host_bytes = results["host_agg"].total_reducer_bytes()
        assert results["daiet"].total_reducer_bytes() < host_bytes
        assert host_bytes < results["tcp"].total_reducer_bytes()

    def test_reducers_receive_unique_keys_only_with_daiet(self, results):
        daiet = results["daiet"]
        unique_keys = len(daiet.output)
        pairs_received = sum(m.pairs_received for m in daiet.reducer_metrics.values())
        # In-network aggregation means the reducers see at most one pair per
        # key from the network plus whatever stayed local (and rare spillover
        # duplicates when register slots collide).
        assert pairs_received <= unique_keys * 1.1

    def test_per_reducer_metrics_populated(self, results):
        for result in results.values():
            assert len(result.reducer_metrics) == NUM_REDUCERS
            for metrics in result.reducer_metrics.values():
                assert metrics.packets_received > 0
                assert metrics.wire_bytes_received > 0
                assert metrics.reduce_seconds >= 0.0


class TestMasterValidation:
    def test_split_count_must_match_mappers(self, corpus):
        cluster = build_cluster(num_workers=NUM_WORKERS)
        spec = make_wordcount_job(num_mappers=NUM_MAPPERS, num_reducers=NUM_REDUCERS)
        master = MapReduceMaster(cluster, spec, TcpShuffle())
        with pytest.raises(JobError):
            master.run(corpus.splits(NUM_MAPPERS - 1))

    def test_placement_must_match_spec(self):
        cluster = build_cluster(num_workers=NUM_WORKERS)
        spec = make_wordcount_job(num_mappers=NUM_MAPPERS, num_reducers=NUM_REDUCERS)
        bad_placement = default_placement(cluster, NUM_MAPPERS - 2, NUM_REDUCERS)
        with pytest.raises(JobError):
            MapReduceMaster(cluster, spec, TcpShuffle(), bad_placement)

    def test_shuffle_accounting_is_populated(self, corpus):
        result = run_job(DaietShuffle(DaietConfig(register_slots=4096)), corpus)
        assert result.total_packets_sent > 0
        assert result.simulated_seconds > 0.0


# ---------------------------------------------------------------------- #
# The MapReduce shuffle runs on the one host-side DAIET stack
# ---------------------------------------------------------------------- #
FIG3 = Figure3Settings().quick()
LOSS_SEED = 29


@pytest.fixture(scope="module")
def fig3_corpus():
    return generate_corpus(FIG3.corpus_spec())


def fig3_config(**changes) -> DaietConfig:
    return dataclasses.replace(FIG3.daiet_config(), **changes)


def fig3_master(config: DaietConfig, loss_rate: float = 0.0) -> MapReduceMaster:
    """The `repro fig3 --quick` job over a ``DaietShuffle``, not yet run."""
    cluster = build_cluster(
        num_workers=FIG3.num_workers, loss_rate=loss_rate, loss_seed=LOSS_SEED
    )
    spec = make_wordcount_job(
        num_mappers=FIG3.num_mappers, num_reducers=FIG3.num_reducers, daiet=config
    )
    placement = default_placement(cluster, FIG3.num_mappers, FIG3.num_reducers)
    return MapReduceMaster(cluster, spec, DaietShuffle(config), placement)


def network_streams(master: MapReduceMaster):
    """``(mapper host, reducer id, reducer host, pairs)`` in the shuffle's send order."""
    for reducer_id, reducer in enumerate(master.placement.reducer_hosts):
        grouped = master.shuffle.pairs_by_host(master.map_outputs, reducer_id)
        for mapper, pairs in grouped.items():
            if mapper != reducer:
                yield mapper, reducer_id, reducer, pairs


class TestReliabilityPolicyReachesTheHosts:
    """``config.reliability_policy`` is one decision for switches *and* hosts."""

    #: (policy, loss) -> (output exact, packets into reducers, switch ACKs,
    #: duplicates dropped at the switch). The lossless ``exact`` row is what
    #: the shuffle's own stack gave before it moved onto ``DaietSystem``; the
    #: two lossy reliable rows read 779 / 461 / 176 and 557 / 254 / 172 while
    #: a timeout resent everything outstanding instead of repairing holes.
    ROWS = {
        ("exact", 0.0): (True, 595, 289, 0),
        ("exact", 0.01): (True, 615, 313, 0),
        ("sampled", 0.0): (True, 380, 74, 0),
        ("sampled", 0.01): (True, 410, 106, 0),
        ("best_effort", 0.0): (True, 306, 0, 0),
        ("best_effort", 0.01): (False, 302, 0, 0),
    }

    @pytest.mark.parametrize("policy, loss_rate", list(ROWS))
    def test_policy_row(self, fig3_corpus, policy, loss_rate):
        master = fig3_master(
            fig3_config(reliability=True, reliability_policy=policy), loss_rate
        )
        result = master.run(fig3_corpus.splits(FIG3.num_mappers))
        trees = master.shuffle.system.controller.tree_counters().values()
        assert master.cluster.simulator.tree_policies == dict.fromkeys(
            range(1, FIG3.num_reducers + 1), policy
        )
        assert (
            result.output == fig3_corpus.word_counts(),
            result.total_reducer_packets(),
            sum(tree.acks_sent for tree in trees),
            sum(tree.duplicate_packets for tree in trees),
        ) == self.ROWS[policy, loss_rate]

    def test_best_effort_costs_what_no_reliability_costs(self, fig3_corpus):
        splits = fig3_corpus.splits(FIG3.num_mappers)
        plain = fig3_master(fig3_config()).run(splits)
        best_effort = fig3_master(
            fig3_config(reliability=True, reliability_policy="best_effort")
        ).run(splits)
        assert best_effort.total_reducer_packets() == plain.total_reducer_packets()
        assert best_effort.simulated_seconds <= 2 * plain.simulated_seconds


class TestShuffleRunsOnDaietSystem:
    @pytest.mark.parametrize(
        "reliability, loss_rate", [(False, 0.0), (True, 0.0), (True, 0.01)]
    )
    def test_twin_of_a_hand_driven_system(
        self, fig3_corpus, reliability, loss_rate, traffic_snapshot
    ):
        # The MapReduce layer adds nothing to the wire: the same placement and
        # partitions through a bare DaietSystem on a second cluster, installed
        # and sent in the same order, leave every counter identical.
        config = fig3_config(reliability=reliability)
        master = fig3_master(config, loss_rate)
        master.run(fig3_corpus.splits(FIG3.num_mappers))
        shuffle = master.shuffle

        cluster = build_cluster(FIG3.num_workers, loss_rate=loss_rate, loss_seed=LOSS_SEED)
        twin = DaietSystem(cluster.topology, config, simulator=cluster.simulator)
        twin.install_job(
            mappers=sorted(set(master.placement.mapper_hosts)),
            reducers=master.placement.reducer_hosts,
        )
        for mapper, _, reducer, pairs in network_streams(master):
            twin.send_pairs(mapper, reducer, pairs)
        twin.run()

        assert traffic_snapshot(twin.simulator) == traffic_snapshot(
            master.cluster.simulator
        )
        assert twin.controller.tree_counters() == shuffle.system.controller.tree_counters()
        assert twin.reliability_stats() == shuffle.system.reliability_stats()
        assert bool(twin.reliability_stats()) == reliability

    def test_error_tracker_bounds_a_lossy_best_effort_job(self, fig3_corpus):
        # The tracker installs on the shuffle's system like on any other, so
        # the job is driven by hand: it must sit between prepare and transfer.
        master = fig3_master(
            fig3_config(reliability=True, reliability_policy="best_effort"), 0.01
        )
        shuffle, cluster = master.shuffle, master.cluster
        master._create_tasks()
        shuffle.prepare(cluster, master.spec, master.placement, master.reduce_tasks)
        tracker = install_error_tracker(shuffle.system)
        splits = fig3_corpus.splits(FIG3.num_mappers)
        master.map_outputs = [task.run(split) for task, split in zip(master.map_tasks, splits)]
        shuffle.transfer(master.map_outputs)
        cluster.simulator.run()
        shuffle.finalize()

        injected = dict.fromkeys(range(FIG3.num_reducers), 0)
        for _, reducer_id, _, pairs in network_streams(master):
            injected[reducer_id] += sum(count for _, count in pairs)
        truth = fig3_corpus.word_counts()
        total_error = 0
        for reducer_id, task in master.reduce_tasks.items():
            owned = {
                word: count
                for word, count in truth.items()
                if master.partitioner.partition(word) == reducer_id
            }
            error = true_error_l1(owned, task.finish())
            bound = tracker.bound(shuffle.system.tree_for(task.host).tree_id)
            assert bound.contains(error)
            assert bound.injected_abs == injected[reducer_id]
            total_error += error
        assert total_error > 0

    def test_receiver_is_gone_once_the_job_attached_its_buffers(self, fig3_corpus):
        master = fig3_master(fig3_config())
        master.run(fig3_corpus.splits(FIG3.num_mappers))
        with pytest.raises(ControllerError):
            master.shuffle.system.receiver(master.placement.reducer_hosts[0])

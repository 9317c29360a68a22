"""The round runner against the hand-written sequences it replaced.

Every experiment arm goes through :mod:`repro.experiments.rounds`; these
tests hold the runner to what the drivers used to spell out themselves:
install the job, send, run, check the aggregate, then sum host and switch
counters. They also pin the two builders that lost their copies: the lossy
single rack, and worker-level aggregation as a TCP shuffle with a combiner.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

from repro.baselines import HostAggregationShuffle
from repro.core.config import CONGESTION_CONTROLLERS, DaietConfig, TransportTuning
from repro.core.daiet import DaietSystem
from repro.core.errors import TopologyError
from repro.experiments.figure3_wordcount import Figure3Settings, run_transport
from repro.experiments.figure_incast import IncastSettings, run_incast_arm
from repro.experiments.rounds import (
    Round,
    gradient_partitions,
    run_daiet_round,
    run_datagram_round,
    truth_of,
    wordcount_partitions,
)
from repro.mapreduce.shuffle import DaietShuffle
from repro.mapreduce.wordcount import generate_corpus
from repro.netsim.simulator import NetworkSimulator, SimulatorConfig
from repro.netsim.devices import Host
from repro.netsim.topology import Topology, leaf_spine, single_rack

WORKERS = 4
MAPPERS = [f"h{i}" for i in range(WORKERS)]
REDUCER = f"h{WORKERS}"


def _system(loss_rate: float, policy: str) -> DaietSystem:
    return DaietSystem(
        single_rack(WORKERS + 1, loss_rate=loss_rate),
        DaietConfig(
            register_slots=64,
            reliability=True,
            retransmit_timeout=1e-4,
            reliability_policy=policy,
        ),
        SimulatorConfig(loss_seed=17),
    )


def _by_hand(system, partitions, truth, policy) -> dict:
    """The sequence every driver used to write out, counter sums included."""
    system.install_job(mappers=MAPPERS, reducers=[REDUCER], policy=policy)
    for mapper, pairs in zip(MAPPERS, partitions):
        system.send_pairs(mapper, REDUCER, pairs)
    events = system.run()
    receiver = system.receiver(REDUCER)
    stats = system.simulator.stats
    hosts = list(system.reliability_stats().values())
    trees = list(system.controller.tree_counters().values())
    return dict(
        completed=receiver.done,
        exact=receiver.done and receiver.result() == truth,
        result=receiver.result(),
        events=events,
        sim_seconds=system.simulator.now,
        packets_sent=sum(host["packets_sent"] for host in hosts),
        retransmissions=sum(host["retransmissions"] for host in hosts)
        + sum(tree.retransmitted_packets for tree in trees),
        acks=sum(host["acks_sent"] for host in hosts)
        + sum(tree.acks_sent for tree in trees),
        duplicates_filtered=sum(tree.duplicate_packets for tree in trees),
        pairs_delivered=receiver.counters.pairs,
        losses=stats.total_losses(),
        link_bytes=stats.total_link_bytes(),
        link_packets=stats.total_link_packets(),
        ecn_marks=stats.total_ecn_marked(),
        queue_drops=stats.total_queue_drops(),
        fault_drops=stats.total_fault_drops(),
        reducer_packets=system.simulator.host(REDUCER).counters.packets_received,
    )


class TestDaietRound:
    @pytest.mark.parametrize("policy", ["exact", "sampled", "best_effort"])
    @pytest.mark.parametrize("loss_rate", [0.0, 0.01])
    def test_round_equals_the_hand_written_sequence(self, loss_rate, policy):
        partitions = gradient_partitions(3017, WORKERS, 120, 60)
        truth = truth_of(partitions)
        by_hand = _by_hand(_system(loss_rate, policy), partitions, truth, policy)
        round_ = run_daiet_round(
            _system(loss_rate, policy), MAPPERS, REDUCER, partitions, truth, policy
        )
        measured = dataclasses.asdict(round_)
        assert measured.pop("wall_seconds") >= 0.0
        assert measured == by_hand
        assert round_.completed
        if policy == "exact" or loss_rate == 0.0:
            assert round_.exact
        if policy == "best_effort":
            assert round_.acks == round_.retransmissions == 0

    def test_counters_are_totals_on_a_reused_system(self):
        # One system, one round per training step: the last round's counters
        # cover all of them, its events only its own run.
        system = _system(0.01, "exact")
        rounds = []
        for step in range(2):
            partitions = gradient_partitions(100 + step, WORKERS, 120, 60)
            rounds.append(
                run_daiet_round(
                    system, MAPPERS, REDUCER, partitions, truth_of(partitions)
                )
            )
        first, second = rounds
        assert first.exact and second.exact
        assert second.link_packets > first.link_packets
        assert second.sim_seconds > first.sim_seconds
        assert second.link_packets == system.simulator.stats.total_link_packets()
        assert first.events > 0 and second.events > 0

    def test_into_copies_the_shared_fields_and_keeps_own_ones(self):
        @dataclasses.dataclass
        class Arm:
            name: str
            exact: bool
            link_bytes: int
            losses: int = -1

        partitions = wordcount_partitions(7, WORKERS, 50, 40)
        round_ = run_daiet_round(
            _system(0.0, "exact"), MAPPERS, REDUCER, partitions, truth_of(partitions)
        )
        arm = round_.into(Arm, name="a", losses=5)
        assert arm == Arm("a", round_.exact, round_.link_bytes, losses=5)


# ---------------------------------------------------------------------- #
# Recovery costs what the loss costs
# ---------------------------------------------------------------------- #
RACK_MAPPERS = [f"h{i}" for i in range(16)]


@functools.lru_cache(maxsize=None)
def _rack_input(pairs: int):
    partitions = wordcount_partitions(2017, 16, pairs, 8_000, digits=5)
    return partitions, truth_of(partitions)


@functools.lru_cache(maxsize=None)
def _rack_round(pairs: int, loss_rate: float, controller: str, adaptive_rto: bool) -> Round:
    """16 mappers -> 1 reducer behind one ToR, every link losing ``loss_rate``."""
    partitions, truth = _rack_input(pairs)
    system = DaietSystem(
        single_rack(17, loss_rate=loss_rate),
        DaietConfig(
            reliability=True,
            retransmit_timeout=1e-4,
            tuning=TransportTuning(
                adaptive_rto=adaptive_rto, congestion_control=controller
            ),
        ),
        SimulatorConfig(loss_seed=2017),
    )
    return run_daiet_round(system, RACK_MAPPERS, "h16", partitions, truth)


class TestTheRoundItself:
    def test_4096_workers_on_a_257_leaf_fabric(self):
        """A 4,096-worker leaf-spine round, reliable and exact end to end.

        Every leaf flushes towards a spine as one window, which the spine's
        register kernel takes; host uplinks drop 0.1% of what they carry. The
        whole round, set-up included, takes about 3 s on a 2-vCPU VM.
        """
        topology = leaf_spine(num_leaves=257, num_spines=4, hosts_per_leaf=16)
        for link in topology.links:
            if any(isinstance(topology.get(end.device), Host) for end in (link.a, link.b)):
                link.loss_rate = 0.001
        system = DaietSystem(
            topology,
            DaietConfig(register_slots=1024, reliability=True, retransmit_timeout=1e-4),
            SimulatorConfig(loss_seed=4096),
        )
        mappers = [f"h{i}" for i in range(1, 4097)]
        rng = random.Random(4096)
        partitions = [
            [(f"w{rng.randrange(2_000)}", rng.randrange(1, 9)) for _ in range(5)]
            for _ in mappers
        ]
        truth: dict[str, int] = {}
        for pairs in partitions:
            for key, value in pairs:
                truth[key] = truth.get(key, 0) + value
        round_ = run_daiet_round(system, mappers, "h0", partitions, truth)
        assert round_.completed and round_.exact
        assert round_.losses > 0


class TestRecoveryCostsWhatTheLossCosts:
    """Retransmissions and simulated time are bounded by the loss itself.

    Go-back-N on timeout resent ~32 packets per loss on the large round at
    default tuning, and the adaptive transport stalled the same round for
    130 simulated seconds; neither showed in any exactness check.
    """

    @pytest.mark.parametrize("adaptive_rto", [False, True], ids=["fixed", "rto"])
    @pytest.mark.parametrize("controller", CONGESTION_CONTROLLERS)
    @pytest.mark.parametrize(
        "loss_rate, slowdown", [(0.01, 15), (0.05, 40)], ids=["1pct", "5pct"]
    )
    @pytest.mark.parametrize("pairs", [2_000, 18_000])
    def test_every_tuning_recovers_in_proportion(
        self, pairs, loss_rate, slowdown, controller, adaptive_rto
    ):
        # A lossless round never times out, so it reads the same either way.
        lossless = _rack_round(pairs, 0.0, controller, False)
        lossy = _rack_round(pairs, loss_rate, controller, adaptive_rto)
        assert lossless.exact and lossless.retransmissions == 0
        assert lossy.exact and lossy.losses > 0
        assert lossy.retransmissions <= 1.5 * lossy.losses + 64
        assert lossy.sim_seconds <= slowdown * lossless.sim_seconds

    def test_default_tuning_carries_little_beyond_the_lossless_round(self):
        lossless = _rack_round(18_000, 0.0, "none", False)
        lossy = _rack_round(18_000, 0.01, "none", False)
        assert lossy.link_bytes <= 1.2 * lossless.link_bytes
        assert lossy.duplicates_filtered <= 0.05 * lossy.packets_sent

    def test_datagram_baseline_recovers_in_proportion_too(self):
        # The `repro incast --quick` fan-in-16 point: its losses are tail
        # drops at the 24 KB reducer-port buffer, none at the deep one.
        settings = IncastSettings().quick()
        shallow = run_incast_arm(settings, "udp-aimd", 16, settings.switch_buffer_bytes)
        deep = run_incast_arm(settings, "udp-aimd", 16, 10_000_000)
        assert shallow.exact and deep.exact
        assert deep.queue_drops == 0 < shallow.queue_drops
        assert shallow.retransmissions <= 1.5 * shallow.queue_drops + 64
        assert shallow.sim_seconds <= 15 * deep.sim_seconds


class TestDatagramRound:
    def _run(self, loss_rate: float, max_retransmits: int) -> Round:
        partitions = wordcount_partitions(2017, WORKERS, 120, 80)
        simulator = NetworkSimulator(
            single_rack(WORKERS + 1, loss_rate=loss_rate), SimulatorConfig(loss_seed=3)
        )
        return run_datagram_round(
            simulator,
            dict(retransmit_timeout=1e-4, ack_window=8, max_retransmits=max_retransmits),
            MAPPERS,
            REDUCER,
            partitions,
            truth_of(partitions),
            pairs_per_packet=10,
            pair_bytes=20,
            port=9090,
        )

    def test_exact_under_loss(self):
        round_ = self._run(loss_rate=0.05, max_retransmits=30)
        assert round_.completed and round_.exact
        assert round_.losses > 0
        assert round_.retransmissions > 0
        assert round_.pairs_delivered == WORKERS * 120
        assert round_.packets_sent == WORKERS * 12 + round_.acks
        assert round_.reducer_packets >= WORKERS * 12

    def test_a_flow_giving_up_is_an_incomplete_round_not_a_crash(self):
        round_ = self._run(loss_rate=0.9, max_retransmits=1)
        assert not round_.completed
        assert not round_.exact
        assert round_.pairs_delivered < WORKERS * 120


def _retired_rack(num_hosts: int, loss_rate: float) -> Topology:
    """The builder five modules each carried a copy of (64-port ToR)."""
    topo = Topology(name="lossy_rack")
    topo.add_switch("tor")
    for i in range(num_hosts):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", "tor", loss_rate=loss_rate)
    topo.validate()
    return topo


class TestLossySingleRack:
    @pytest.mark.parametrize("num_hosts", [1, 5, 63])
    def test_link_for_link_equal_to_the_retired_builder(self, num_hosts):
        rack = single_rack(num_hosts, loss_rate=0.01)
        retired = _retired_rack(num_hosts, 0.01)
        assert rack.links == retired.links
        assert sorted(rack.devices) == sorted(retired.devices)
        assert all(link.loss_rate == 0.01 for link in rack.links)

    def test_lossless_by_default(self):
        assert all(link.loss_rate == 0.0 for link in single_rack(3).links)

    def test_buildable_past_64_ports(self):
        with pytest.raises(TopologyError):
            _retired_rack(70, 0.01)
        assert len(single_rack(70, loss_rate=0.01).links) == 70


class TestHostAggregationIsTcpWithACombiner:
    def test_fig3_quick_job_accounting_is_the_parents(self):
        # Recorded from the standalone HostAggregationShuffle this class
        # replaced, on the `repro fig3 --quick` job.
        settings = Figure3Settings().quick()
        corpus = generate_corpus(settings.corpus_spec())
        shuffle = HostAggregationShuffle(mss=settings.effective_tcp_mss)
        result = run_transport(settings, shuffle, corpus.splits(settings.num_mappers))
        assert result.output == corpus.word_counts()
        assert dataclasses.asdict(shuffle.accounting) == {
            "packets_sent": 170,
            "payload_bytes_sent": 166140,
            "local_pairs": 2778,
            "network_pairs": 8307,
        }
        assert {
            reducer_id: (
                metrics.packets_received,
                metrics.payload_bytes_received,
                metrics.pairs_received,
                metrics.local_pairs,
            )
            for reducer_id, metrics in result.reducer_metrics.items()
        } == {
            0: (42, 40500, 2025, 690),
            1: (42, 41740, 2087, 705),
            2: (44, 43300, 2165, 709),
            3: (42, 40600, 2030, 674),
        }


class TestDaietShuffleAccountsWhatTheSystemInjected:
    @pytest.mark.parametrize(
        "reliability, payload_bytes_sent", [(False, 467688), (True, 476752)]
    )
    def test_fig3_quick_job_accounting_is_the_parents(self, reliability, payload_bytes_sent):
        # Recorded from the DaietShuffle that packetized for itself, on the
        # `repro fig3 --quick` job; a sequenced packet carries 4 more bytes.
        settings = dataclasses.replace(Figure3Settings().quick(), reliability=reliability)
        corpus = generate_corpus(settings.corpus_spec())
        shuffle = DaietShuffle(settings.daiet_config())
        result = run_transport(settings, shuffle, corpus.splits(settings.num_mappers))
        assert result.output == corpus.word_counts()
        assert dataclasses.asdict(shuffle.accounting) == {
            "packets_sent": 2266,
            "payload_bytes_sent": payload_bytes_sent,
            "local_pairs": 7522,
            "network_pairs": 22478,
        }

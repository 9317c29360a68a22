"""Ablation: key-frequency skew (uniform vs Zipf) vs aggregation effectiveness.

The paper's dataset uses uniformly random, collision-free words. Real
partition/aggregate workloads are usually skewed (a few hot keys dominate),
which makes in-network aggregation *more* effective: more occurrences collapse
into each register slot. This ablation quantifies that, and also reports the
hash-collision/spillover rate under both distributions.
"""

from __future__ import annotations

from repro.analysis.reporting import render_comparison_table
from repro.baselines.udp_shuffle import UdpShuffle
from repro.core.config import DaietConfig
from repro.experiments.figure3_wordcount import Figure3Settings, run_transport
from repro.mapreduce.shuffle import DaietShuffle
from repro.mapreduce.wordcount import CorpusSpec, generate_corpus

SETTINGS = Figure3Settings(
    num_workers=6,
    num_mappers=12,
    num_reducers=6,
    total_words=50_000,
    vocabulary_size=5_000,
)


def _run_distribution(distribution: str):
    corpus = generate_corpus(
        CorpusSpec(
            total_words=SETTINGS.total_words,
            vocabulary_size=SETTINGS.vocabulary_size,
            num_partitions=SETTINGS.num_reducers,
            seed=SETTINGS.seed,
            distribution=distribution,
            avoid_register_collisions=False,
        )
    )
    splits = corpus.splits(SETTINGS.num_mappers)
    config = DaietConfig(register_slots=8192)
    shuffle = DaietShuffle(config=config)
    daiet = run_transport(SETTINGS, shuffle, splits)
    udp = run_transport(SETTINGS, UdpShuffle(config=config), splits)
    assert daiet.output == corpus.word_counts()
    counters = shuffle.system.controller.tree_counters()
    pairs = sum(c.pairs_received for c in counters.values())
    collisions = sum(c.collisions for c in counters.values())
    packet_reduction = 1.0 - daiet.total_reducer_packets() / udp.total_reducer_packets()
    return {
        "distribution": distribution,
        "packet_reduction": packet_reduction,
        "collision_rate": collisions / pairs if pairs else 0.0,
        "unique_keys": len(daiet.output),
    }


def _sweep():
    return [_run_distribution("uniform"), _run_distribution("zipf")]


def test_ablation_key_skew(benchmark, write_report):
    uniform, zipf = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report = render_comparison_table(
        "Ablation: key-frequency skew vs in-network aggregation effectiveness",
        [
            (
                row["distribution"],
                f"packet reduction {row['packet_reduction']:.1%}",
                f"collision rate {row['collision_rate']:.2%}",
            )
            for row in (uniform, zipf)
        ],
        headers=("distribution", "reduction vs UDP", "register collisions"),
    )
    write_report("ablation_key_skew", report)

    # Both distributions see large reductions; skew can only help aggregation
    # because hot keys collapse into a single register slot.
    assert uniform["packet_reduction"] > 0.7
    assert zipf["packet_reduction"] >= uniform["packet_reduction"] - 0.02
    # The collision rate stays moderate at 8K slots for 5K/6 unique keys per
    # partition under either distribution.
    assert uniform["collision_rate"] < 0.2
    assert zipf["collision_rate"] < 0.2

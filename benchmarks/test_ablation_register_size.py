"""Ablation: switch register-array size vs collisions and data reduction.

DESIGN.md: the paper fixes 16K register slots per tree (≈10 MB of SRAM). This
sweep varies the slot count and reports the collision/spillover rate and the
resulting data-volume reduction, quantifying how much SRAM the aggregation
really needs for a given key cardinality.
"""

from __future__ import annotations

from repro.analysis.reporting import render_comparison_table
from repro.baselines.tcp_shuffle import TcpShuffle
from repro.core.config import DaietConfig
from repro.experiments.figure3_wordcount import Figure3Settings, run_transport
from repro.mapreduce.shuffle import DaietShuffle
from repro.mapreduce.wordcount import CorpusSpec, generate_corpus

#: Register-slot counts swept (the paper's default is 16384).
REGISTER_SWEEP = [512, 2048, 8192, 16384]

SETTINGS = Figure3Settings(
    num_workers=6,
    num_mappers=12,
    num_reducers=6,
    total_words=60_000,
    vocabulary_size=6_000,
)


def _corpus():
    return generate_corpus(
        CorpusSpec(
            total_words=SETTINGS.total_words,
            vocabulary_size=SETTINGS.vocabulary_size,
            num_partitions=SETTINGS.num_reducers,
            seed=SETTINGS.seed,
            avoid_register_collisions=False,
        )
    )


def _sweep() -> list[tuple[int, float, float]]:
    """Returns (slots, collision_rate, data_volume_reduction) per sweep point."""
    corpus = _corpus()
    splits = corpus.splits(SETTINGS.num_mappers)
    tcp = run_transport(SETTINGS, TcpShuffle(mss=SETTINGS.effective_tcp_mss), splits)
    tcp_bytes = tcp.total_reducer_bytes()
    rows = []
    for slots in REGISTER_SWEEP:
        config = DaietConfig(register_slots=slots)
        shuffle = DaietShuffle(config=config)
        result = run_transport(SETTINGS, shuffle, splits)
        assert result.output == corpus.word_counts()
        counters = shuffle.system.controller.tree_counters()
        pairs = sum(c.pairs_received for c in counters.values())
        collisions = sum(c.collisions for c in counters.values())
        collision_rate = collisions / pairs if pairs else 0.0
        reduction = 1.0 - result.total_reducer_bytes() / tcp_bytes
        rows.append((slots, collision_rate, reduction))
    return rows


def test_ablation_register_size(benchmark, write_report):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report = render_comparison_table(
        "Ablation: register slots vs hash collisions and data-volume reduction",
        [
            (f"{slots} slots", f"collisions {rate:.1%}", f"reduction {reduction:.1%}")
            for slots, rate, reduction in rows
        ],
        headers=("configuration", "collision rate", "data reduction"),
    )
    write_report("ablation_register_size", report)

    collision_rates = [rate for _, rate, _ in rows]
    reductions = [reduction for _, _, reduction in rows]
    # More SRAM -> monotonically fewer collisions, and never worse reduction.
    assert collision_rates == sorted(collision_rates, reverse=True)
    assert reductions[-1] >= reductions[0]
    # At the paper's 16K slots collisions are rare and the reduction is high.
    assert collision_rates[-1] < 0.05
    assert reductions[-1] > 0.75
    # Correctness holds even when most pairs collide (tiny register array).
    assert all(reduction > 0.0 for reduction in reductions)

"""Figure 1(a): tensor-update overlap per step under mini-batch SGD.

Paper: softmax network on MNIST, five workers, mini-batch size 3, 200 steps;
average overlap ≈ 42.5%, roughly constant across steps.
"""

from __future__ import annotations

from repro.analysis.reporting import render_comparison_table
from repro.experiments.figure1_ml import (
    PAPER_SGD_OVERLAP_PERCENT,
    Figure1MlSettings,
    make_dataset,
    run_figure1a,
)

SETTINGS = Figure1MlSettings(num_steps=200, dataset_samples=6_000)


def test_figure1a_sgd_overlap(benchmark, write_report):
    dataset = make_dataset(SETTINGS)
    result = benchmark.pedantic(
        lambda: run_figure1a(SETTINGS, dataset), rounds=1, iterations=1
    )

    average = result.average_overlap()
    report = render_comparison_table(
        "Figure 1(a): SGD (mini-batch 3, 5 workers) tensor-update overlap",
        [
            ("average overlap", f"{PAPER_SGD_OVERLAP_PERCENT:.1f}%", f"{average:.1f}%"),
            ("min over steps", "-", f"{min(result.overlap.percentages()):.1f}%"),
            ("max over steps", "-", f"{max(result.overlap.percentages()):.1f}%"),
            ("steps", "200", str(len(result.overlap.steps))),
        ],
    )
    write_report("fig1a_sgd_overlap", report)

    # Shape assertions: overlap in the paper's neighbourhood and stable.
    assert 30.0 <= average <= 55.0
    assert max(result.overlap.percentages()) - min(result.overlap.percentages()) < 15.0

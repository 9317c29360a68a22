"""Figure 1(b): tensor-update overlap per step under Adam.

Paper: softmax network on MNIST, five workers, mini-batch size 100, 200 steps;
average overlap ≈ 66.5%, higher than SGD and roughly constant across steps.
"""

from __future__ import annotations

from repro.analysis.reporting import render_comparison_table
from repro.experiments.figure1_ml import (
    PAPER_ADAM_OVERLAP_PERCENT,
    PAPER_SGD_OVERLAP_PERCENT,
    Figure1MlSettings,
    make_dataset,
    run_figure1a,
    run_figure1b,
)

SETTINGS = Figure1MlSettings(num_steps=200, dataset_samples=6_000)


def test_figure1b_adam_overlap(benchmark, write_report):
    dataset = make_dataset(SETTINGS)
    result = benchmark.pedantic(
        lambda: run_figure1b(SETTINGS, dataset), rounds=1, iterations=1
    )

    # A short SGD run provides the cross-figure comparison (Adam > SGD).
    sgd_settings = Figure1MlSettings(num_steps=30, dataset_samples=SETTINGS.dataset_samples)
    sgd = run_figure1a(sgd_settings, dataset)

    average = result.average_overlap()
    report = render_comparison_table(
        "Figure 1(b): Adam (mini-batch 100, 5 workers) tensor-update overlap",
        [
            ("average overlap", f"{PAPER_ADAM_OVERLAP_PERCENT:.1f}%", f"{average:.1f}%"),
            ("min over steps", "-", f"{min(result.overlap.percentages()):.1f}%"),
            ("max over steps", "-", f"{max(result.overlap.percentages()):.1f}%"),
            (
                "Adam minus SGD",
                f"{PAPER_ADAM_OVERLAP_PERCENT - PAPER_SGD_OVERLAP_PERCENT:.1f} pts",
                f"{average - sgd.average_overlap():.1f} pts",
            ),
        ],
    )
    write_report("fig1b_adam_overlap", report)

    assert 55.0 <= average <= 80.0
    assert average > sgd.average_overlap() + 15.0
    assert max(result.overlap.percentages()) - min(result.overlap.percentages()) < 10.0

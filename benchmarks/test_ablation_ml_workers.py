"""Ablation: tensor-update overlap as the number of workers grows.

Section 3 of the paper: "We also experimented while increasing the number of
workers from two to five (without changing the mini-batch size), and observed
that the overlap increases." This sweep reproduces that observation for both
optimizers.
"""

from __future__ import annotations

from repro.analysis.reporting import render_comparison_table
from repro.mlsys.datasets import generate_synthetic_mnist
from repro.mlsys.training import DistributedTrainingJob, TrainingConfig

WORKER_SWEEP = [2, 3, 4, 5]
NUM_STEPS = 40


def _sweep():
    dataset = generate_synthetic_mnist(num_samples=4_000, seed=2017)
    rows = []
    for workers in WORKER_SWEEP:
        sgd, adam = (
            DistributedTrainingJob(
                TrainingConfig(
                    optimizer, batch_size=batch, num_steps=NUM_STEPS, num_workers=workers
                ),
                dataset=dataset,
            ).run()
            for optimizer, batch in (("sgd", 3), ("adam", 100))
        )
        rows.append((workers, sgd.average_overlap(), adam.average_overlap()))
    return rows


def test_ablation_overlap_vs_worker_count(benchmark, write_report):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report = render_comparison_table(
        "Ablation: tensor-update overlap vs number of workers (paper: overlap increases)",
        [
            (f"{workers} workers", f"SGD {sgd:.1f}%", f"Adam {adam:.1f}%")
            for workers, sgd, adam in rows
        ],
        headers=("workers", "SGD overlap", "Adam overlap"),
    )
    write_report("ablation_ml_workers", report)

    sgd_series = [sgd for _, sgd, _ in rows]
    adam_series = [adam for _, _, adam in rows]
    # Overlap grows monotonically (within noise) with the worker count.
    assert sgd_series[-1] > sgd_series[0] + 5.0
    assert adam_series[-1] > adam_series[0] + 3.0
    assert all(later >= earlier - 1.0 for earlier, later in zip(sgd_series, sgd_series[1:]))
    assert all(later >= earlier - 1.0 for earlier, later in zip(adam_series, adam_series[1:]))

"""Loss sweep: exact aggregation and bounded overhead over lossy links.

The paper defers packet-loss handling to future work; the reproduction's
reliability subsystem (sequence numbers, seen-windows, cumulative+selective
ACKs, host retransmit timers, switch pull-driven retransmission) must make
every workload produce bit-identical aggregates at every swept loss rate,
and must do so cheaply: at 1% loss the total link-byte cost stays below 2x
the lossless, reliability-free goodput baseline.
"""

from __future__ import annotations

from repro.experiments.figure_loss_sweep import (
    OVERHEAD_GATE_AT_1PCT,
    LossSweepSettings,
    run_loss_sweep,
)
from repro.experiments.rounds import find

SETTINGS = LossSweepSettings()


def test_loss_sweep(benchmark, write_report):
    result = benchmark.pedantic(lambda: run_loss_sweep(SETTINGS), rounds=1, iterations=1)
    write_report("loss_sweep", result.report)

    # Every run at every loss rate must complete and match the lossless
    # ground truth exactly — pairs are never lost, duplicated or
    # double-counted.
    for workload, runs in result.runs.items():
        for run in runs:
            assert run.completed, f"{workload} at {run.loss_rate:.1%} did not finish"
            assert run.exact, f"{workload} at {run.loss_rate:.1%} diverged"

    # Reliability must be cheap: < 2x goodput at 1% loss for both workloads.
    for workload in result.runs:
        overhead = find(result.runs[workload], "the 1% run", loss_rate=0.01).overhead
        assert overhead < OVERHEAD_GATE_AT_1PCT, (
            f"{workload} reliability overhead {overhead:.2f}x at 1% loss "
            f"exceeds the {OVERHEAD_GATE_AT_1PCT}x gate"
        )

    # Loss actually happened at the non-zero rates (the knob is live).
    assert any(
        run.losses > 0 for runs in result.runs.values() for run in runs
        if run.loss_rate >= 0.01
    )

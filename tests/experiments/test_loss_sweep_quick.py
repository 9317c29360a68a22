"""Fast integration test of the loss-sweep experiment runner."""

from __future__ import annotations

import hashlib

from repro.experiments.figure_loss_sweep import LossSweepSettings, run_loss_sweep
from repro.experiments.rounds import find


class TestLossSweepQuick:
    def test_quick_sweep_is_exact_and_cheap(self):
        result = run_loss_sweep(LossSweepSettings().quick())
        assert set(result.runs) == {"wordcount", "ml_training"}
        for workload, runs in result.runs.items():
            assert [run.loss_rate for run in runs] == [0.0, 0.01]
            for run in runs:
                assert run.completed and run.exact, (
                    f"{workload} at {run.loss_rate:.1%} must match ground truth"
                )
            assert find(runs, "the 1% run", loss_rate=0.01).overhead < 2.0

    def test_report_mentions_both_workloads_and_verdict(self):
        result = run_loss_sweep(LossSweepSettings().quick())
        assert "wordcount" in result.report
        assert "ml_training" in result.report
        assert "bit-identical" in result.report

    def test_quick_report_is_pinned(self):
        # `repro loss-sweep --quick`, byte for byte.
        report = run_loss_sweep(LossSweepSettings().quick()).report
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "97490166684dfed825d0665e21539f9893b328265d532368457ea671384480e0"
        )

    def test_quick_settings_are_small(self):
        quick = LossSweepSettings().quick()
        assert quick.num_workers < LossSweepSettings().num_workers
        assert quick.loss_rates == (0.0, 0.01)

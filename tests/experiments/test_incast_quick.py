"""Quick integration tests for the incast fan-in experiment."""

from __future__ import annotations

import dataclasses
import hashlib

from repro.experiments.figure_incast import (
    ARMS,
    IncastSettings,
    run_incast,
)


def _tiny_settings() -> IncastSettings:
    """Smaller than quick(): a single fan-in, no ablation."""
    return dataclasses.replace(
        IncastSettings().quick(),
        fanins=(12,),
        ablation_buffers=(),
        ablation_fanin=12,
    )


class TestIncastQuick:
    def test_all_arms_run_and_are_exact(self):
        result = run_incast(_tiny_settings())
        assert [run.arm for run in result.runs] == list(ARMS)
        for run in result.runs:
            assert run.completed
            assert run.exact
            assert run.sim_seconds > 0
            assert run.goodput_bps > 0
        assert "Verdict" in result.report

    def test_adaptive_arm_beats_fixed_rto_under_congestion(self):
        result = run_incast(_tiny_settings())
        fixed = result.run_for("udp-fixed", 12)
        adaptive = result.run_for("udp-aimd", 12)
        # The whole point of the adaptive transport: under the same shallow
        # buffer the SRTT-driven arm must not do worse than the fixed-RTO
        # arm, and its retransmit overhead must not exceed it either.
        assert adaptive.goodput_bps >= fixed.goodput_bps
        assert adaptive.retransmit_overhead <= fixed.retransmit_overhead

    def test_daiet_aggregation_dodges_the_incast(self):
        result = run_incast(_tiny_settings())
        daiet = result.run_for("daiet", 12)
        for arm in ("udp-fixed", "udp-aimd"):
            assert daiet.goodput_bps > result.run_for(arm, 12).goodput_bps
        assert daiet.queue_drops == 0

    def test_congestion_signals_are_observed(self):
        result = run_incast(_tiny_settings())
        fixed = result.run_for("udp-fixed", 12)
        # The shallow quick() buffer must actually congest: the fixed arm
        # sees marks (and the sweep is meaningless if nothing queues).
        assert fixed.ecn_marks > 0

    def test_twin_runs_are_deterministic(self):
        settings = _tiny_settings()
        first = run_incast(settings)
        second = run_incast(settings)
        assert first.report == second.report
        assert [dataclasses.astuple(run) for run in first.runs] == [
            dataclasses.astuple(run) for run in second.runs
        ]

    def test_quick_report_is_pinned(self):
        # `repro incast --quick` (fan-in sweep and buffer ablation), byte for
        # byte.
        report = run_incast(IncastSettings().quick()).report
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "0498657c0f9170d21eae5a5080a10ffe9448a1f0794e116b6b1d938b371a87f4"
        )

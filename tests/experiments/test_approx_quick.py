"""Fast integration tests of the approximation-sweep experiment runner.

The full ``repro approx-sweep`` sweeps loss rate x reliability policy x
workload class; tier-1 runs the quick variant twice and checks the headline
claims: degraded policies undercut exact on link bytes at the gate loss,
every non-exact aggregate carries a bound containing its true error, the
wordcount class never runs a degraded arm, and the report is deterministic.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.figure_approx import (
    GATE_LOSS_RATE,
    ApproxSweepSettings,
    run_approx_sweep,
)

pytestmark = pytest.mark.approx


@pytest.fixture(scope="module")
def quick_result():
    return run_approx_sweep(ApproxSweepSettings().quick())


class TestApproxQuick:
    def test_gate_degraded_arms_undercut_exact(self, quick_result):
        savings = quick_result.savings_at_gate()
        assert ("sgd_gradients", "sampled") in savings
        assert ("sgd_gradients", "best_effort") in savings
        assert ("pagerank", "sampled") in savings
        assert ("pagerank", "best_effort") in savings
        assert quick_result.gate_holds
        for ratio in savings.values():
            assert 0.0 < ratio < 1.0

    def test_every_bound_contains_the_true_error(self, quick_result):
        assert quick_result.all_bounds_contain
        for run in quick_result.runs:
            assert run.bound.contains(run.true_error)
            assert run.bound.abs_bound >= 0
            if run.policy == "exact":
                # Exact arms repair every loss: zero error, zero bound.
                assert run.true_error == 0
                assert run.bound.abs_bound == 0

    def test_wordcount_is_pinned_to_exact(self, quick_result):
        policies = {
            run.policy for run in quick_result.runs if run.workload == "wordcount"
        }
        assert policies == {"exact"}

    def test_best_effort_sends_no_reliability_traffic(self, quick_result):
        for workload in ("sgd_gradients", "pagerank"):
            run = quick_result.arm(workload, GATE_LOSS_RATE, "best_effort")
            assert run.acks == 0
            assert run.retransmissions == 0

    def test_convergence_impact_sections_are_populated(self, quick_result):
        sgd = quick_result.sgd_impact
        assert sgd is not None
        assert sgd.drop_rate == quick_result.settings.impact_drop_rate
        assert sgd.updates_dropped >= 0
        pr = quick_result.pagerank_impact
        assert pr is not None
        assert pr.messages_dropped > 0
        assert pr.state_l1_error >= 0.0

    def test_report_is_deterministic(self, quick_result):
        second = run_approx_sweep(ApproxSweepSettings().quick())
        assert quick_result.report == second.report
        assert "Verdict:" in quick_result.report

    def test_quick_report_is_pinned(self, quick_result):
        # `repro approx-sweep --quick`, byte for byte.
        digest = hashlib.sha256(quick_result.report.encode()).hexdigest()
        assert digest == (
            "3b4797e3325c2e52812996402683947360f228a348200b9c61dced3746d4e567"
        )

    def test_quick_settings_are_small(self):
        quick = ApproxSweepSettings().quick()
        assert quick.num_workers < ApproxSweepSettings().num_workers
        assert len(quick.loss_rates) < len(ApproxSweepSettings().loss_rates)
        assert GATE_LOSS_RATE in quick.loss_rates

"""Fast integration tests of the fault-churn experiment runner.

The full ``repro churn`` experiment sweeps four scenarios; tier-1 runs a
quick spine-kill (both reliability modes) and checks the headline claims:
recovery is bit-exact with reliability on, degradation is bounded and
reported with it off, and the rendered report is deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.experiments.figure_churn import ChurnSettings, run_churn
from repro.experiments.rounds import find

pytestmark = pytest.mark.churn


def _quick(reliability: bool) -> ChurnSettings:
    return dataclasses.replace(ChurnSettings().quick(), reliability=reliability)


class TestChurnQuick:
    def test_spine_kill_recovery_is_exact_with_reliability(self):
        result = run_churn(_quick(reliability=True), ("spine-kill",))
        scenario = result.results["spine-kill"]
        recover = find(scenario.arms, "the recover arm", name="recover")
        assert recover.exact and recover.done
        assert recover.value_deficit == 0
        assert result.recovery_exact
        assert any("re-planned" in entry for _t, entry in scenario.control_log)
        assert any("switch-crash" in entry for _t, entry in scenario.fault_log)

    def test_spine_kill_degrades_bounded_without_reliability(self):
        result = run_churn(_quick(reliability=False), ("spine-kill",))
        scenario = result.results["spine-kill"]
        for arm in scenario.arms:
            # Bounded, reported degradation — never negative (corruption),
            # never a hang (every arm produced a terminating run).
            assert arm.value_deficit >= 0
        assert "degraded" in result.report

    def test_report_is_deterministic(self):
        settings = _quick(reliability=True)
        first = run_churn(settings, ("spine-kill",)).report
        second = run_churn(settings, ("spine-kill",)).report
        assert first == second

    @pytest.mark.parametrize(
        ("reliability", "digest"),
        [
            (False, "64ea2aafa05629ae0ec79d856ea44d021f334c25fe7cc4774f2b0489c404efe7"),
            (True, "72bd55d9fcf5ec3ebaafef6f96d31d53e4d834514e2bffceb44578c636cd4997"),
        ],
    )
    def test_quick_report_is_pinned(self, reliability, digest):
        # `repro churn --quick [--reliability]`, all four scenarios, byte for
        # byte (fault and control-plane logs included).
        report = run_churn(_quick(reliability)).report
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    def test_quick_settings_are_small(self):
        quick = ChurnSettings().quick()
        assert quick.keys_per_mapper < ChurnSettings().keys_per_mapper
        assert len(quick.flap_seeds) < len(ChurnSettings().flap_seeds)

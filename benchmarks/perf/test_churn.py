"""Perf floor for the fault-churn machinery.

The spine-kill scenario exercises everything churn adds to the hot path at
once: the fault gate's veto on every transmission, a mid-round switch
wipe, heartbeat ticks, tree re-planning and a full replay. Its throughput
is recorded as ``churn_spine_kill`` in ``BENCH_simcore.json`` and gated at
half the recorded trajectory, in CPU seconds — the same generous pattern as
the simulator-core benches, so the gate catches a gate compiled into a slow
path without flaking on loaded machines. A sample is some 20 ms, so the
samples run under :func:`frozen_heap`: a collection then walks what the
scenario allocated, not the heap every earlier test left behind.
"""

from __future__ import annotations

import dataclasses

import pytest

from bench_common import (
    MacroBenchResult,
    bench_clock,
    current_rss_bytes,
    frozen_heap,
    record_bench,
    recorded_floor,
)

from repro.experiments.figure_churn import ChurnSettings, run_churn

pytestmark = pytest.mark.perf


class TestChurnThroughput:
    def test_churn_spine_kill_bench(self):
        settings = dataclasses.replace(ChurnSettings(), reliability=True)
        best: MacroBenchResult | None = None
        with frozen_heap():
            for _ in range(3):
                rss_before = current_rss_bytes()
                start = bench_clock()
                result = run_churn(settings, ("spine-kill",))
                wall = bench_clock() - start
                assert result.recovery_exact, "spine-kill recovery diverged"
                scenario = result.results["spine-kill"]
                events = scenario.events
                packets = scenario.link_packets
                measured = MacroBenchResult(
                    events=events,
                    packets=packets,
                    wall_seconds=wall,
                    events_per_sec=events / wall if wall > 0 else 0.0,
                    packets_per_sec=packets / wall if wall > 0 else 0.0,
                    rss_before_bytes=rss_before,
                    rss_after_bytes=current_rss_bytes(),
                    exact=result.recovery_exact,
                )
                if best is None or measured.events_per_sec > best.events_per_sec:
                    best = measured
        assert best is not None
        floor = recorded_floor("churn_spine_kill")
        record_bench("churn_spine_kill", best)
        print(
            f"\nchurn spine-kill bench: {best.events_per_sec:,.0f} events/s "
            f"({best.events} events over three arms) against a floor of "
            f"{floor:,.0f} events/s"
        )
        assert best.events_per_sec >= floor

"""Perf floor for the degraded-mode aggregation machinery.

The full approximation sweep exercises everything the selective-reliability
work adds to the hot path at once: the policy-aware receive dispatch, the
strided-ACK cadence, the error-tracker transmit wrapper on every hop, and
the stranded-mass register walks at bound time. Its throughput is recorded
as ``approx_sweep`` in ``BENCH_simcore.json`` and gated at half the
recorded trajectory, in CPU seconds — the same generous pattern as the
other simulator benches, so the gate catches a tracker wrapper turning into
a per-packet slow path without flaking on loaded machines.
"""

from __future__ import annotations

import pytest

from bench_common import (
    MacroBenchResult,
    bench_clock,
    current_rss_bytes,
    record_bench,
    recorded_floor,
)

from repro.experiments.figure_approx import ApproxSweepSettings, run_approx_sweep

pytestmark = [pytest.mark.perf, pytest.mark.approx]


class TestApproxThroughput:
    def test_approx_sweep_bench(self):
        settings = ApproxSweepSettings()
        best: MacroBenchResult | None = None
        for _ in range(3):
            rss_before = current_rss_bytes()
            start = bench_clock()
            result = run_approx_sweep(settings)
            wall = bench_clock() - start
            assert result.gate_holds, "degraded arms failed the byte gate"
            assert result.all_bounds_contain, "an error bound undershot"
            events = sum(run.events for run in result.runs)
            packets = sum(run.link_packets for run in result.runs)
            measured = MacroBenchResult(
                events=events,
                packets=packets,
                wall_seconds=wall,
                events_per_sec=events / wall if wall > 0 else 0.0,
                packets_per_sec=packets / wall if wall > 0 else 0.0,
                rss_before_bytes=rss_before,
                rss_after_bytes=current_rss_bytes(),
                exact=result.all_bounds_contain,
            )
            if best is None or measured.events_per_sec > best.events_per_sec:
                best = measured
        assert best is not None
        floor = recorded_floor("approx_sweep")
        record_bench("approx_sweep", best)
        print(
            f"\napprox sweep bench: {best.events_per_sec:,.0f} events/s "
            f"({best.events} events across every arm) against a floor of "
            f"{floor:,.0f} events/s"
        )
        assert best.events_per_sec >= floor

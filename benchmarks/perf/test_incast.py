"""Perf floor for the adaptive-transport incast path.

A 256-way fan-in through the AIMD arm exercises everything the adaptive
transport adds to the hot path at once: the unified windowed sender, the
RTT estimator on every ACK, congestion-window pacing and its pending
queue, switch-egress ECN marking and tail-drop checks on every switch
transmission, and the CE-triggered ACKs in the receivers. Its throughput
is recorded as ``incast_256`` in ``BENCH_simcore.json`` and gated at half
the recorded trajectory, in CPU seconds — the same generous pattern as the
other simulator-core benches, so the gate catches the sender falling off
its compiled path without flaking on loaded machines.
"""

from __future__ import annotations

import dataclasses

import pytest

from bench_common import (
    MacroBenchResult,
    bench_clock,
    current_rss_bytes,
    record_bench,
    recorded_floor,
)

from repro.experiments.figure_incast import IncastSettings, run_incast_arm

pytestmark = pytest.mark.perf


class TestIncastThroughput:
    def test_incast_256_bench(self):
        settings = dataclasses.replace(IncastSettings(), fanins=(256,))
        best: MacroBenchResult | None = None
        for _ in range(3):
            rss_before = current_rss_bytes()
            start = bench_clock()
            run = run_incast_arm(settings, "udp-aimd", 256, settings.switch_buffer_bytes)
            wall = bench_clock() - start
            assert run.exact, "incast aggregate diverged from ground truth"
            measured = MacroBenchResult(
                events=run.events,
                packets=run.datagrams_sent + run.retransmissions,
                wall_seconds=wall,
                events_per_sec=run.events / wall if wall > 0 else 0.0,
                packets_per_sec=(
                    (run.datagrams_sent + run.retransmissions) / wall
                    if wall > 0
                    else 0.0
                ),
                rss_before_bytes=rss_before,
                rss_after_bytes=current_rss_bytes(),
                exact=run.exact,
            )
            if best is None or measured.events_per_sec > best.events_per_sec:
                best = measured
        assert best is not None
        floor = recorded_floor("incast_256")
        record_bench("incast_256", best)
        print(
            f"\nincast 256-way bench: {best.events_per_sec:,.0f} events/s "
            f"({best.events} events through the AIMD arm) against a floor of "
            f"{floor:,.0f} events/s"
        )
        assert best.events_per_sec >= floor

"""Wall-clock perf harness for the discrete-event simulator core.

Measures events/sec and packets/sec of the wordcount macro-bench (the
simulator-bound WordCount shuffle defined in ``bench_common``) and records
the trajectory in ``BENCH_simcore.json`` at the repo root, so every PR from
this one onward can see whether the hot path got faster or slower.

Every test here carries the ``perf`` marker (select with ``-m perf``, skip
with ``-m "not perf"``). The assertions are deliberately generous — a run
must be slower than HALF the recorded throughput before the smoke test
fails — so the gate catches order-of-magnitude regressions without flaking
on loaded CI machines. The measured numbers (not the gate) are what track
the trajectory.
"""

from __future__ import annotations

import time

import pytest

from bench_common import (
    MacroBenchResult,
    current_rss_bytes,
    record_bench,
    recorded_floor,
    run_wordcount_macro,
)

pytestmark = pytest.mark.perf

#: Events/sec of the seed-era simulator core on the wordcount macro-bench,
#: measured on the same class of machine that produced the current numbers
#: (see BENCH_simcore.json). The vectorized burst core does ~10x this.
SEED_BASELINE_EVENTS_PER_SEC = 46_000

#: Tier-1 smoke floor: half the seed-era throughput. Any real regression in
#: the fast path shows up in BENCH_simcore.json long before tripping this.
SMOKE_FLOOR_EVENTS_PER_SEC = SEED_BASELINE_EVENTS_PER_SEC / 2

#: Floor for the vectorized macro-bench itself: above the ~183k events/s
#: the per-pair core topped out at (so silently losing the burst kernel
#: fails the gate), yet half of the worst loaded-suite best-of-3 (~500k)
#: so it never flakes on a busy machine.
VECTOR_FLOOR_EVENTS_PER_SEC = 250_000

#: Fallback floor for the 1024-worker leaf-spine round (reliability on,
#: lossy uplinks) on a fresh checkout with no recorded trajectory. The live
#: gate is half the recorded BENCH_simcore.json figure, same pattern as the
#: other benches — loaded-suite runs measure ~40% below the idle-machine
#: number, so a fixed idle-era floor flakes where recorded/2 does not.
SCALE_1024_FLOOR_EVENTS_PER_SEC = 20_000


def _best_of(n: int, **kwargs) -> MacroBenchResult:
    """Best-of-``n`` runs (wall-clock noise on shared machines is large)."""
    best: MacroBenchResult | None = None
    for _ in range(n):
        result = run_wordcount_macro(**kwargs)
        assert result.exact, "macro-bench aggregate diverged from ground truth"
        if best is None or result.events_per_sec > best.events_per_sec:
            best = result
    assert best is not None
    return best


class TestSimulatorCoreThroughput:
    def test_wordcount_macro_bench(self):
        """The headline number: events/sec on the wordcount macro-bench."""
        result = _best_of(
            3,
            num_mappers=16,
            pairs_per_mapper=12_000,
            vocabulary=8_000,
            register_slots=16 * 1024,
        )
        speedup = result.events_per_sec / SEED_BASELINE_EVENTS_PER_SEC
        record_bench(
            "wordcount_macro",
            result,
            seed_baseline_events_per_sec=SEED_BASELINE_EVENTS_PER_SEC,
            speedup_vs_seed=speedup,
        )
        print(
            f"\nwordcount macro-bench: {result.events_per_sec:,.0f} events/s "
            f"({speedup:.1f}x the seed baseline of "
            f"{SEED_BASELINE_EVENTS_PER_SEC:,} events/s)"
        )
        assert result.events_per_sec >= VECTOR_FLOOR_EVENTS_PER_SEC

    def test_sanitizer_off_costs_nothing(self, monkeypatch):
        """With REPRO_SANITIZE unset the hot path carries zero checker cost.

        The sanitizer is an observer attached only when enabled; disabled,
        no hook is bound and the simulator runs the plain compiled paths,
        with nothing checked per event but the scheduler's own monotonicity
        comparison. Gate: throughput stays
        above half the trajectory recorded in BENCH_simcore.json (falling
        back to the seed-era smoke floor on a fresh checkout).
        """
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        floor = max(SMOKE_FLOOR_EVENTS_PER_SEC, recorded_floor("wordcount_macro"))
        result = _best_of(
            3,
            num_mappers=16,
            pairs_per_mapper=12_000,
            vocabulary=8_000,
            register_slots=16 * 1024,
        )
        print(
            f"\nsanitizer-off guard: {result.events_per_sec:,.0f} events/s "
            f"against a floor of {floor:,.0f} events/s"
        )
        assert result.events_per_sec >= floor

    def test_reliable_lossy_macro_bench(self):
        """Reliability + 1% loss: the retransmission machinery stays fast."""
        result = _best_of(
            2,
            num_mappers=16,
            pairs_per_mapper=2_000,
            vocabulary=2_000,
            register_slots=4_096,
            reliability=True,
            loss_rate=0.01,
        )
        record_bench("wordcount_macro_reliable_1pct_loss", result)
        assert result.events_per_sec >= SMOKE_FLOOR_EVENTS_PER_SEC / 2

    def test_scale_canary(self):
        """A 64-worker leaf-spine reliability round as a scale canary."""
        from repro.experiments.figure_scale import ScaleSettings, run_scale_once

        settings = ScaleSettings()
        rss_before = current_rss_bytes()
        start = time.perf_counter()
        run = run_scale_once(settings, 64)
        wall = time.perf_counter() - start
        assert run.exact
        record_bench(
            "scale_64_leaf_spine",
            MacroBenchResult(
                events=run.events,
                packets=run.link_packets,
                wall_seconds=run.wall_seconds,
                events_per_sec=run.events_per_sec,
                packets_per_sec=(
                    run.link_packets / run.wall_seconds if run.wall_seconds else 0.0
                ),
                rss_before_bytes=rss_before,
                rss_after_bytes=current_rss_bytes(),
                exact=run.exact,
            ),
        )
        # Generous: the full 64-worker round (setup included) stays under 30s.
        assert wall < 30.0

    def test_scale_1024_bench(self):
        """The cluster-scale headline: a 1024-worker reliability round.

        One-BFS-per-destination routing, burst injection and the calendar
        scheduler turned this from minutes of setup + simulation into a few
        seconds end to end; the floor (half the recorded throughput) fails
        fast on a real regression without flaking on machine noise.
        """
        from repro.experiments.figure_scale import ScaleSettings, run_scale_once

        floor = max(
            SCALE_1024_FLOOR_EVENTS_PER_SEC, recorded_floor("scale_1024_leaf_spine")
        )
        settings = ScaleSettings()
        rss_before = current_rss_bytes()
        start = time.perf_counter()
        run = run_scale_once(settings, 1024)
        wall = time.perf_counter() - start
        assert run.exact
        record_bench(
            "scale_1024_leaf_spine",
            MacroBenchResult(
                events=run.events,
                packets=run.link_packets,
                wall_seconds=run.wall_seconds,
                events_per_sec=run.events_per_sec,
                packets_per_sec=(
                    run.link_packets / run.wall_seconds if run.wall_seconds else 0.0
                ),
                rss_before_bytes=rss_before,
                rss_after_bytes=current_rss_bytes(),
                exact=run.exact,
            ),
            total_wall_seconds=wall,
        )
        print(
            f"\nscale-1024 bench: {run.events_per_sec:,.0f} events/s, "
            f"{wall:.1f}s end to end (setup included)"
        )
        assert run.events_per_sec >= floor
        # End-to-end budget, setup included: far above any healthy run.
        assert wall < 60.0

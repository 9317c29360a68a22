"""Unit tests for the discrete-event scheduler."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import SimulationError
from repro.netsim.events import EventScheduler


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order: list[str] = []
        scheduler.schedule(2.0, order.append, "late")
        scheduler.schedule(1.0, order.append, "early")
        scheduler.run()
        assert order == ["early", "late"]
        assert scheduler.now == pytest.approx(2.0)

    def test_equal_timestamps_preserve_scheduling_order(self):
        scheduler = EventScheduler()
        order: list[int] = []
        for i in range(5):
            scheduler.schedule(1.0, order.append, i)
        scheduler.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.schedule(-0.1, lambda: None)

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        seen = []
        event = scheduler.schedule(1.0, seen.append, "cancelled")
        scheduler.schedule(2.0, seen.append, "kept")
        event.cancel()
        executed = scheduler.run()
        assert seen == ["kept"]
        assert executed == 1

    def test_run_until_stops_before_future_events(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(1.0, seen.append, "a")
        scheduler.schedule(10.0, seen.append, "b")
        scheduler.run(until=5.0)
        assert seen == ["a"]
        assert scheduler.now == pytest.approx(5.0)
        scheduler.run()
        assert seen == ["a", "b"]

    def test_max_events_safety_valve(self):
        scheduler = EventScheduler()

        def reschedule() -> None:
            scheduler.schedule(0.001, reschedule)

        scheduler.schedule(0.0, reschedule)
        executed = scheduler.run(max_events=50)
        assert executed == 50

    def test_events_scheduled_during_execution_run(self):
        scheduler = EventScheduler()
        seen = []

        def first() -> None:
            seen.append("first")
            scheduler.schedule(1.0, lambda: seen.append("second"))

        scheduler.schedule(1.0, first)
        scheduler.run()
        assert seen == ["first", "second"]

    def test_len_and_peek(self):
        scheduler = EventScheduler()
        assert len(scheduler) == 0
        assert scheduler.peek_time() is None
        scheduler.schedule(3.0, lambda: None)
        assert len(scheduler) == 1
        assert scheduler.peek_time() == pytest.approx(3.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
    def test_execution_times_are_monotone(self, delays):
        scheduler = EventScheduler()
        times: list[float] = []
        for delay in delays:
            scheduler.schedule(delay, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == sorted(times)


class TestCancelledEventCompaction:
    """The cancelled-Timer litter fix: the heap must not grow without bound."""

    def test_len_is_exact_with_cancelled_events(self):
        scheduler = EventScheduler()
        events = [scheduler.schedule(1.0 + i, lambda: None) for i in range(10)]
        for event in events[:4]:
            event.cancel()
        assert len(scheduler) == 6

    def test_cancel_is_idempotent(self):
        scheduler = EventScheduler()
        event = scheduler.schedule(1.0, lambda: None)
        kept = scheduler.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(scheduler) == 1
        seen = []
        scheduler.schedule(3.0, seen.append, "x")
        scheduler.run()
        assert seen == ["x"]
        assert not kept.cancelled

    def test_heap_compacts_when_mostly_cancelled(self):
        scheduler = EventScheduler()
        live = [scheduler.schedule(1e6 + i, lambda: None) for i in range(10)]
        litter = [scheduler.schedule(10.0 + i, lambda: None) for i in range(500)]
        for event in litter:
            event.cancel()
        # Lazy compaction must have dropped (most of) the cancelled litter
        # without waiting for the events to come due.
        assert len(scheduler._queue) < 100
        assert len(scheduler) == len(live)

    def test_restartable_timer_rearm_does_not_leak(self):
        from repro.netsim.events import Timer

        scheduler = EventScheduler()
        fired = []
        timer = Timer(scheduler, lambda: fired.append(scheduler.now))
        for _ in range(5_000):
            timer.start(1.0)  # each restart cancels the previous deadline
        # Only the latest arming may remain pending (plus bounded litter).
        assert len(scheduler) == 1
        assert len(scheduler._queue) < 200
        scheduler.run()
        assert len(fired) == 1

    def test_cancelled_events_skipped_after_compaction(self):
        scheduler = EventScheduler()
        seen = []
        cancelled = [scheduler.schedule(1.0, seen.append, i) for i in range(200)]
        scheduler.schedule(2.0, seen.append, "kept")
        for event in cancelled:
            event.cancel()
        executed = scheduler.run()
        assert executed == 1
        assert seen == ["kept"]
        assert scheduler.events_executed == 1

    def test_peek_time_skips_cancelled_head(self):
        scheduler = EventScheduler()
        head = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(5.0, lambda: None)
        head.cancel()
        assert scheduler.peek_time() == 5.0

    def test_cancel_after_execution_is_a_noop(self):
        scheduler = EventScheduler()
        event = scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        event.cancel()  # late cancel of an executed event: harmless
        assert len(scheduler) == 0
        seen = []
        scheduler.schedule(2.0, seen.append, "later")
        assert len(scheduler) == 1
        scheduler.run()
        assert seen == ["later"]

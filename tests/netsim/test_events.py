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
        assert scheduler.peek_entry() is None
        scheduler.schedule(3.0, lambda: None)
        assert len(scheduler) == 1
        assert scheduler.peek_entry()[0] == pytest.approx(3.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40))
    def test_execution_times_are_monotone(self, delays):
        scheduler = EventScheduler()
        times: list[float] = []
        for delay in delays:
            scheduler.schedule(delay, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == sorted(times)


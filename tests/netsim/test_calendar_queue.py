"""Equivalence tests: calendar-queue and heap schedulers order identically.

The calendar queue is only allowed to change *how fast* events come off the
queue, never *which order* they come off in. Every test here runs the same
workload on a heap-only scheduler (threshold too high to ever migrate), a
calendar-from-the-start scheduler (threshold 1) and a mid-run migrator, and
asserts the observable execution traces are identical — including
cancellations, same-time ties and events scheduled from inside callbacks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.events import CalendarQueue, EventScheduler, Timer

#: Threshold high enough that the heap backend never migrates.
HEAP_ONLY = 10**9


def _trace_of(scheduler: EventScheduler, workload) -> list[tuple[float, object]]:
    """Apply ``workload(scheduler, trace)`` and drain; return the trace."""
    trace: list[tuple[float, object]] = []
    workload(scheduler, trace)
    scheduler.run()
    return trace


def _assert_equivalent(workload) -> None:
    """The workload's trace must not depend on the scheduler backend."""
    heap_trace = _trace_of(EventScheduler(calendar_threshold=HEAP_ONLY), workload)
    cal_trace = _trace_of(EventScheduler(calendar_threshold=1), workload)
    mid_trace = _trace_of(EventScheduler(calendar_threshold=7), workload)
    assert heap_trace == cal_trace
    assert heap_trace == mid_trace


class TestBackendEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.booleans(),  # cancel this event?
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_schedules_and_cancellations(self, spec):
        def workload(scheduler, trace):
            events = []
            for i, (delay, _) in enumerate(spec):
                events.append(
                    scheduler.schedule(
                        delay, lambda i=i: trace.append((scheduler.now, i))
                    )
                )
            for event, (_, cancel) in zip(events, spec):
                if cancel:
                    event.cancel()

        _assert_equivalent(workload)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_same_time_ties_stay_fifo(self, times):
        def workload(scheduler, trace):
            for i, t in enumerate(times):
                scheduler.schedule(float(t), lambda i=i: trace.append((scheduler.now, i)))

        _assert_equivalent(workload)

    def test_events_scheduled_from_callbacks(self):
        def workload(scheduler, trace):
            def cascade(depth):
                trace.append((scheduler.now, depth))
                if depth < 9:
                    scheduler.schedule(0.0, cascade, depth + 1)
                    scheduler.schedule(0.5, cascade, depth + 1)

            scheduler.schedule(0.0, cascade, 0)

        heap_trace = _trace_of(EventScheduler(calendar_threshold=HEAP_ONLY), workload)
        cal_trace = _trace_of(EventScheduler(calendar_threshold=1), workload)
        assert heap_trace == cal_trace

    def test_push_at_matches_heap(self):
        def workload(scheduler, trace):
            for i, t in enumerate([3.0, 1.0, 1.0, 2.0, 0.0, 3.0]):
                scheduler.push_at(t, lambda i=i: trace.append((scheduler.now, i)), ())

        _assert_equivalent(workload)

    def test_window_entry_reexpands_like_per_entry_pushes(self):
        """The burst-delivery contract: a window pushed as ONE entry that
        re-enqueues its tail under reserved sequence numbers dispatches
        exactly like one ``push_at`` per item — also against a foreign event
        sharing a timestamp — and ``peek_entry`` shows the same head."""
        times = [1.0, 1.0, 2.0, 2.0, 3.0]

        def note(scheduler, trace, label):
            head = scheduler.peek_entry()
            trace.append((scheduler.now, label, head and head[:2]))

        def per_entry(scheduler, trace):
            for i, t in enumerate(times):
                scheduler.push_at(t, note, (scheduler, trace, i))
            scheduler.push_at(2.0, note, (scheduler, trace, "foreign"))

        def windowed(scheduler, trace):
            seq0 = scheduler.reserve_seqs(len(times))

            def item(i):
                nxt = i + 1
                if nxt < len(times):
                    scheduler.push_entry((times[nxt], seq0 + nxt, item, (nxt,)))
                note(scheduler, trace, i)

            scheduler.push_entry((times[0], seq0, item, (0,)))
            scheduler.push_at(2.0, note, (scheduler, trace, "foreign"))

        reference = _trace_of(EventScheduler(calendar_threshold=HEAP_ONLY), per_entry)
        assert [label for _now, label, _head in reference] == [0, 1, 2, 3, "foreign", 4]
        for threshold in (HEAP_ONLY, 1, 3):
            trace = _trace_of(EventScheduler(calendar_threshold=threshold), windowed)
            assert trace == reference

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 9.0]), max_size=40),
        cancel=st.sets(st.integers(0, 39)),
        pops=st.integers(0, 10),
        limit=st.sampled_from([0.0, 1.0, 1.7, 4.0, 100.0]),
    )
    def test_entries_through_lists_what_is_due(
        self, times, cancel, pops, limit
    ):
        """What the burst handler scans: every live entry due by ``limit``,
        with nothing taken."""
        for threshold in (HEAP_ONLY, 1, 7):
            scheduler = EventScheduler(calendar_threshold=threshold)
            events = [scheduler.schedule(t, lambda: None) for t in times]
            for index in cancel:
                if index < len(events):
                    events[index].cancel()
            for _ in range(pops):
                scheduler.pop_entry()
            due = sorted(scheduler.entries_through(limit))
            pending = len(scheduler)
            rest = []
            while (entry := scheduler.pop_entry()) is not None:
                rest.append(entry)
            assert due == [entry for entry in rest if entry[0] <= limit]
            assert len(rest) == pending

    def test_pop_entry_takes_heads_in_dispatch_order(self):
        for threshold in (HEAP_ONLY, 1):
            scheduler = EventScheduler(calendar_threshold=threshold)
            events = [scheduler.schedule(t, lambda: None) for t in (3.0, 1.0, 2.0, 1.0)]
            events[2].cancel()
            taken = []
            while (entry := scheduler.pop_entry()) is not None:
                taken.append(entry[:2])
            assert taken == [(1.0, 1), (1.0, 3), (3.0, 0)]
            assert scheduler.peek_entry() is None
            # A taken entry is gone: cancelling its handle later is a no-op.
            events[0].cancel()
            assert len(scheduler) == 0

    def test_sparse_far_future_events(self):
        """Events separated by thousands of empty bucket-days."""

        def workload(scheduler, trace):
            for i, t in enumerate([0.0, 1e-6, 1.0, 5e3, 9e5, 9e5 + 1e-9]):
                scheduler.schedule(t, lambda i=i: trace.append((scheduler.now, i)))

        _assert_equivalent(workload)

    def test_until_and_max_events_bounds(self):
        for threshold in (HEAP_ONLY, 1):
            scheduler = EventScheduler(calendar_threshold=threshold)
            seen = []
            for i in range(10):
                scheduler.schedule(float(i), seen.append, i)
            assert scheduler.run(until=4.5) == 5
            assert seen == [0, 1, 2, 3, 4]
            assert scheduler.now == pytest.approx(4.5)
            assert scheduler.run(max_events=2) == 2
            assert seen == [0, 1, 2, 3, 4, 5, 6]
            scheduler.run()
            assert seen == list(range(10))


class TestCalendarScheduler:
    """Behaviour the calendar backend must share with the heap (unit level)."""

    def _calendar_scheduler(self) -> EventScheduler:
        scheduler = EventScheduler(calendar_threshold=1)
        scheduler.schedule(0.0, lambda: None)
        scheduler.run()
        assert scheduler.calendar_active
        return scheduler

    def test_migration_preserves_pending_events(self):
        scheduler = EventScheduler(calendar_threshold=8)
        seen = []
        for i in range(20):
            scheduler.schedule(float(20 - i), seen.append, 20 - i)
        assert scheduler.calendar_active
        assert len(scheduler) == 20
        scheduler.run()
        assert seen == sorted(seen)

    def test_migration_mid_run_from_callback(self):
        scheduler = EventScheduler(calendar_threshold=16)
        seen = []

        def fan_out():
            for i in range(40):
                scheduler.schedule(1.0 + i * 0.25, seen.append, i)

        scheduler.schedule(0.5, fan_out)
        scheduler.run()
        assert not seen or seen == sorted(seen)
        assert seen == list(range(40))
        assert scheduler.calendar_active

    def test_peek_does_not_advance_past_later_pushes(self):
        """A peek must not let a later (earlier-time) push be overtaken."""
        scheduler = self._calendar_scheduler()
        seen = []
        scheduler.schedule(10.0, seen.append, "late")
        assert scheduler.peek_time() == pytest.approx(scheduler.now + 10.0)
        scheduler.schedule(5.0, seen.append, "early")
        scheduler.run()
        assert seen == ["early", "late"]

    def test_cancelled_events_skipped_and_len_exact(self):
        scheduler = self._calendar_scheduler()
        events = [scheduler.schedule(1.0 + i, lambda: None) for i in range(10)]
        for event in events[:4]:
            event.cancel()
        assert len(scheduler) == 6
        executed = scheduler.run()
        assert executed == 6

    def test_timer_litter_is_compacted(self):
        scheduler = self._calendar_scheduler()
        fired = []
        timer = Timer(scheduler, lambda: fired.append(scheduler.now))
        for _ in range(5_000):
            timer.start(1.0)
        assert len(scheduler) == 1
        assert scheduler._cal is not None and scheduler._cal.count < 200
        scheduler.run()
        assert len(fired) == 1

    def test_step_on_calendar_backend(self):
        scheduler = self._calendar_scheduler()
        seen = []
        scheduler.schedule(1.0, seen.append, "a")
        scheduler.schedule(2.0, seen.append, "b")
        assert scheduler.step() is True
        assert seen == ["a"]
        assert scheduler.step() is True
        assert scheduler.step() is False
        assert seen == ["a", "b"]

    def test_resize_growth_and_shrink(self):
        queue = CalendarQueue([], floor_time=0.0)
        entries = [(i * 0.001, i, None, ()) for i in range(10_000)]
        for entry in entries:
            queue.push(entry)
        assert len(queue) == 10_000
        popped = []
        none_set: set[int] = set()
        while True:
            entry = queue.pop(None, none_set)
            if entry is None:
                break
            popped.append(entry)
        assert popped == sorted(entries, key=lambda e: (e[0], e[1]))
        assert len(queue) == 0

    def test_same_time_burst_single_bucket(self):
        queue = CalendarQueue([], floor_time=0.0)
        for i in range(1_000):
            queue.push((0.0, i, None, ()))
        seqs = []
        none_set: set[int] = set()
        while len(queue):
            seqs.append(queue.pop(None, none_set)[1])
        assert seqs == list(range(1_000))

"""Equivalence tests: calendar-queue and heap schedulers order identically.

The calendar queue is only allowed to change *how fast* events come off the
queue, never *which order* they come off in. Every test here runs the same
workload on a heap-only scheduler (threshold too high to ever migrate), a
calendar-from-the-start scheduler (threshold 1) and a mid-run migrator, and
asserts the observable execution traces are identical — including
same-time ties and events scheduled from inside callbacks. Timers (re-arms,
cancels, dead entries) have their own oracle, ``test_timers.py``, which runs
on the same three backends.
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
        starts=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), max_size=6),
        rearms=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([None, 0.0, 0.3, 1.0, 2.5, 8.0])),
            max_size=12,
        ),
        advance=st.sampled_from([0.0, 0.5, 1.0, 1.7]),
        horizon=st.sampled_from([0.0, 0.4, 1.0, 2.7, 100.0]),
    )
    def test_entries_through_lists_what_is_due(
        self, times, starts, rearms, advance, horizon
    ):
        """What the burst handler scans: every live entry due by ``limit``,
        a re-armed timer's at its armed deadline, with nothing taken. The
        listed keys, in order, are what ``run(until=limit)`` then does."""
        for threshold in (HEAP_ONLY, 1, 7):
            scheduler = EventScheduler(calendar_threshold=threshold)
            trace: list[object] = []
            for i, t in enumerate(times):
                scheduler.push_at(t, trace.append, (i,))
            timers = [
                Timer(scheduler, lambda j=j: trace.append(("timer", j)))
                for j in range(len(starts))
            ]
            labels = {id(timer): ("timer", j) for j, timer in enumerate(timers)}
            for timer, delay in zip(timers, starts):
                timer.start(delay)
            scheduler.run(until=advance)
            armed = {j: delay for j, delay in enumerate(starts) if delay > advance}
            for j, delay in rearms:
                if j >= len(timers):
                    continue
                if delay is None:
                    timers[j].cancel()
                    armed.pop(j, None)
                else:
                    timers[j].start(delay)
                    armed[j] = scheduler.now + delay
            limit = scheduler.now + horizon
            due = sorted(scheduler.entries_through(limit), key=lambda e: e[:2])
            assert sorted(e[0] for e in due) == sorted(
                [t for t in times if advance < t <= limit]
                + [t for t in armed.values() if t <= limit]
            )
            pending = len(scheduler)
            del trace[:]
            scheduler.run(until=limit)
            assert trace == [labels.get(id(e[3][0]), e[3][0]) for e in due]
            assert pending == len(scheduler) + len(due)

    def test_pop_entry_takes_heads_in_dispatch_order(self):
        for threshold in (HEAP_ONLY, 1):
            scheduler = EventScheduler(calendar_threshold=threshold)
            for t in (3.0, 1.0):
                scheduler.push_at(t, lambda: None, ())
            timer = Timer(scheduler, lambda: None)
            timer.start(2.0)
            timer.cancel()  # seq 2: a dead entry, never taken
            scheduler.push_at(1.0, lambda: None, ())
            taken = []
            while (entry := scheduler.pop_entry()) is not None:
                taken.append(entry[:2])
            assert taken == [(1.0, 1), (1.0, 3), (3.0, 0)]
            assert scheduler.peek_entry() is None
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
        assert scheduler.peek_entry()[0] == pytest.approx(scheduler.now + 10.0)
        scheduler.schedule(5.0, seen.append, "early")
        scheduler.run()
        assert seen == ["early", "late"]

    def test_one_event_at_a_time_on_calendar_backend(self):
        scheduler = self._calendar_scheduler()
        seen = []
        scheduler.schedule(1.0, seen.append, "a")
        scheduler.schedule(2.0, seen.append, "b")
        assert scheduler.run(max_events=1) == 1
        assert seen == ["a"]
        assert scheduler.run(max_events=1) == 1
        assert scheduler.run(max_events=1) == 0
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

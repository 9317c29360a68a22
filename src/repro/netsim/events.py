"""Discrete-event engine used by the network simulator.

A minimal but complete event scheduler built for throughput. Two backends
share one contract:

* a binary heap of plain ``(time, seq, callback, args)`` tuples (tuple
  comparison short-circuits on the ``(time, seq)`` prefix, so callbacks never
  take part in ordering and identical timestamps never raise ``TypeError``);
* a **calendar queue** (:class:`CalendarQueue`) — an array of time-bucketed
  mini-heaps with amortized O(1) push/pop — which the scheduler migrates to
  automatically once the pending-event count crosses
  :data:`CALENDAR_THRESHOLD`. Million-event runs pay bucket-local costs
  instead of O(log n) sifts over one huge heap.

Both backends dispatch events in identical ``(time, seq)`` order, so a run
is bit-for-bit reproducible regardless of which backend (or migration point)
it used; ``tests/netsim/test_calendar_queue.py`` holds the property tests.
Which backend is active is this module's business alone: a caller that
builds its own entries (the simulator's burst delivery) goes through
``reserve_seqs`` / ``push_entry`` / ``entries_through``.

Plain events cannot be cancelled. A :class:`Timer` owns its deadline and
keeps at most one live queue entry, which a later re-arm leaves in place
(it re-queues itself at the armed key when it surfaces, which is not an
event); a cancel or an earlier re-arm marks it in the scheduler's dead set,
so it is discarded unrun when it surfaces. ``len(scheduler)`` is O(1).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable

from repro.checks.registry import fastpath
from repro.core.errors import SimulationError

#: Pending-entry count at which the scheduler migrates its heap into a
#: calendar queue. Below this, the C-implemented ``heapq`` wins on constant
#: factors; above it, bucket-local operations beat O(log n) sifts (measured
#: crossover on CPython 3.11: ~parity at 50k pending, 1.3x at 100k, 2.4x at
#: 1M). The threshold is a constructor knob so tests can force either
#: backend.
CALENDAR_THRESHOLD = 65_536

#: Upper bound on the number of calendar buckets (memory guard: buckets are
#: Python lists; a million-event run gets ~8 entries per bucket-heap, whose
#: sift cost is still effectively constant).
_MAX_BUCKETS = 1 << 17


@fastpath("calendar-queue", oracle="tests/netsim/test_calendar_queue.py")
class CalendarQueue:
    """A calendar queue over ``(time, seq, callback, args)`` entries.

    Entries live in ``nbuckets`` lists managed as small heaps; an entry with
    timestamp ``t`` belongs to *day* ``int(t * inv_width)`` and to bucket
    ``day & (nbuckets - 1)``. Popping scans forward one day at a time from
    the day of the last popped entry, so with a well-chosen ``width`` each
    pop touches O(1) buckets; a full empty cycle falls back to a direct
    minimum scan over the bucket heads (sparse far-future timers).

    Ordering is exactly the heap's ``(time, seq)`` order: the day index is
    monotone in ``time`` (push and pop compute it with the *same* float
    expression, so there is no boundary disagreement), and within a day all
    entries share one bucket, where the mini-heap orders them by tuple
    comparison.

    The queue auto-resizes: the bucket count doubles when occupancy exceeds
    four entries per bucket (re-estimating the bucket width from the live
    entries) and halves when the calendar becomes mostly empty.
    """

    __slots__ = (
        "buckets",
        "mask",
        "width",
        "inv_width",
        "count",
        "cur_bucket",
        "cur_day",
        "floor_time",
    )

    def __init__(self, entries: list[tuple], floor_time: float) -> None:
        self.floor_time = floor_time
        self._rebuild(entries)

    def _rebuild(self, entries: list[tuple]) -> None:
        """(Re)distribute ``entries`` over a freshly sized bucket array."""
        count = len(entries)
        nbuckets = 1 << max(8, count.bit_length())
        if nbuckets > _MAX_BUCKETS:
            nbuckets = _MAX_BUCKETS
        if entries:
            lo = min(entry[0] for entry in entries)
            hi = max(entry[0] for entry in entries)
            span = hi - lo
        else:
            span = 0.0
        if span > 0.0 and count > 1:
            # Aim for ~2 entries per day; same-time bursts all share one
            # bucket regardless, where the mini-heap degrades gracefully to
            # plain heap behaviour.
            width = span / count * 2.0
        else:
            width = 1.0
        self.width = width
        self.inv_width = 1.0 / width
        self.mask = nbuckets - 1
        buckets: list[list[tuple]] = [[] for _ in range(nbuckets)]
        self.buckets = buckets
        inv = self.inv_width
        mask = self.mask
        for entry in entries:
            bucket = buckets[int(entry[0] * inv) & mask]
            heappush(bucket, entry)
        self.count = count
        day = int(self.floor_time * inv)
        self.cur_day = day
        self.cur_bucket = day & mask

    def _maybe_resize(self) -> None:
        nbuckets = self.mask + 1
        count = self.count
        if (count > 4 * nbuckets and nbuckets < _MAX_BUCKETS) or (
            count < nbuckets >> 3 and nbuckets > 256
        ):
            self._rebuild([entry for bucket in self.buckets for entry in bucket])

    def push(self, entry: tuple) -> None:
        """Insert one ``(time, seq, callback, args)`` entry."""
        heappush(self.buckets[int(entry[0] * self.inv_width) & self.mask], entry)
        self.count += 1
        if self.count > 4 * (self.mask + 1):
            self._maybe_resize()

    def pop(self, until: float | None, cancelled: set[int]) -> tuple | None:
        """Remove and return the earliest pending entry.

        Entries whose sequence number is in ``cancelled`` are discarded (and
        removed from the set). Returns ``None`` when the queue is empty or
        the earliest entry lies beyond ``until``; in that case the scan
        position is *not* advanced, so entries pushed later (always at or
        after the scheduler's current time) can never be scheduled behind
        the scan position.
        """
        if self.count == 0:
            return None
        buckets = self.buckets
        mask = self.mask
        inv = self.inv_width
        cur = self.cur_bucket
        day = self.cur_day
        scanned = 0
        nbuckets = mask + 1
        while True:
            bucket = buckets[cur]
            while bucket and int(bucket[0][0] * inv) == day:
                if until is not None and bucket[0][0] > until:
                    return None
                entry = heappop(bucket)
                self.count -= 1
                seq = entry[1]
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self.cur_bucket = cur
                self.cur_day = day
                self.floor_time = entry[0]
                if self.count < (mask + 1) >> 3 and mask + 1 > 256:
                    self._maybe_resize()
                return entry
            if self.count == 0:
                return None
            cur = (cur + 1) & mask
            day += 1
            scanned += 1
            if scanned > nbuckets:
                # Sparse calendar: jump straight to the earliest entry.
                best = None
                best_index = -1
                for index, candidate in enumerate(buckets):
                    if candidate and (best is None or candidate[0] < best):
                        best = candidate[0]
                        best_index = index
                if best is None:
                    return None
                day = int(best[0] * inv)
                cur = best_index
                scanned = 0

    def peek(self, cancelled: set[int]) -> tuple | None:
        """The earliest pending entry (not removed), or ``None`` when empty.

        Dead entries are discarded as they surface. The scan position is
        *not* advanced (only an executed pop may advance it): peeking does
        not move the scheduler's clock, so a later push may still land
        earlier than the peeked entry.
        """
        if self.count == 0:
            return None
        buckets = self.buckets
        mask = self.mask
        inv = self.inv_width
        cur = self.cur_bucket
        day = self.cur_day
        scanned = 0
        nbuckets = mask + 1
        while True:
            bucket = buckets[cur]
            while bucket and int(bucket[0][0] * inv) == day:
                if bucket[0][1] in cancelled:
                    cancelled.discard(bucket[0][1])
                    heappop(bucket)
                    self.count -= 1
                    continue
                return bucket[0]
            if self.count == 0:
                return None
            cur = (cur + 1) & mask
            day += 1
            scanned += 1
            if scanned > nbuckets:
                best = None
                for candidate in buckets:
                    while candidate and candidate[0][1] in cancelled:
                        cancelled.discard(candidate[0][1])
                        heappop(candidate)
                        self.count -= 1
                    if candidate and (best is None or candidate[0] < best):
                        best = candidate[0]
                return best

    def entries_through(self, limit: float) -> list[tuple]:
        """Every entry with ``time <= limit``, unordered and left in place.

        Pending entries are never earlier than the day of the last pop, so
        the days from there to ``limit``'s day hold them all (a span longer
        than the calendar is one pass over every bucket).
        """
        inv = self.inv_width
        mask = self.mask
        buckets = self.buckets
        first = self.cur_day
        last = int(limit * inv)
        if last - first >= mask:
            days = buckets
        else:
            days = [buckets[day & mask] for day in range(first, last + 1)]
        return [entry for bucket in days for entry in bucket if entry[0] <= limit]

    def __len__(self) -> int:
        return self.count


class EventScheduler:
    """A deterministic priority-queue event scheduler.

    Starts on the binary-heap backend; once the pending-entry count reaches
    ``calendar_threshold`` the whole queue migrates into a
    :class:`CalendarQueue`, which serves for the rest of the scheduler's
    life. Event dispatch order is identical on both backends.
    """

    def __init__(self, calendar_threshold: int | None = None) -> None:
        #: Heap of ``(time, seq, callback, args)`` tuples (heap backend).
        self._queue: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        #: Calendar backend, or ``None`` while the heap is active.
        self._cal: CalendarQueue | None = None
        self._threshold = (
            CALENDAR_THRESHOLD if calendar_threshold is None else calendar_threshold
        )
        #: The dead set: sequence numbers of queued entries that must never
        #: run (a cancelled timer's entry, or one its timer re-armed
        #: earlier). Each names an entry still in the queue; it leaves the
        #: set when that entry surfaces and is discarded.
        self._cancelled: set[int] = set()
        #: callback -> batch handler. When ``run()`` pops an entry whose
        #: callback has a handler, it delegates the entry to the handler as
        #: ``handler(time, seq, args, until, budget)``, which returns how
        #: many events it consumed: a switch's burst or packet sink's may
        #: take the switch's concurrent arrivals as one kernel call (see
        #: :meth:`set_batch_handlers`), a timer's re-queue is 0 events.
        self._batch_handlers: dict[Callable[..., None], Any] = dict(_TIMER_HANDLER)
        self._seq = 0
        self.now = 0.0
        self.events_executed = 0

    # ------------------------------------------------------------------ #
    # Backend selection
    # ------------------------------------------------------------------ #
    @property
    def calendar_active(self) -> bool:
        """True once the scheduler migrated to the calendar-queue backend."""
        return self._cal is not None

    def _activate_calendar(self) -> None:
        """Migrate every pending heap entry into a fresh calendar queue."""
        cancelled = self._cancelled
        entries = [entry for entry in self._queue if entry[1] not in cancelled]
        cancelled.clear()
        # Mutated in place so local aliases held by a running ``run()`` loop
        # observe the drain and hand control to the calendar loop.
        self._queue.clear()
        self._cal = CalendarQueue(entries, self.now)

    def push_entry(self, entry: tuple) -> None:
        """Queue a ready-made ``(time, seq, callback, args)`` entry.

        The sequence number must come from :meth:`reserve_seqs` (or a
        popped entry), and ``time`` must not lie in the past.
        """
        cal = self._cal
        if cal is not None:
            cal.push(entry)
        else:
            heappush(self._queue, entry)
            if len(self._queue) >= self._threshold:
                self._activate_calendar()

    def set_batch_handlers(self, handlers: dict[Callable[..., None], Any]) -> None:
        """Replace the callback -> batch handler map (timers keep theirs).

        The map is refilled in place, so the alias a running ``run()`` loop
        holds stays current.
        """
        self._batch_handlers.clear()
        self._batch_handlers.update(_TIMER_HANDLER)
        self._batch_handlers.update(handlers)

    def reserve_seqs(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; returns the first.

        A burst entry stands for ``count`` packets and re-enqueues its tail
        under the number each packet would have drawn from ``push_at``, so
        the global ``(time, seq)`` order matches a per-packet schedule. A
        :class:`Timer` reserves one per arming for the same reason.
        """
        seq = self._seq
        self._seq = seq + count
        return seq

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        self.push_at(self.now + delay, callback, args)

    def push_at(self, time: float, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        """Hot-path schedule at an absolute time (no delay validation).

        ``time`` must not lie in the past.
        """
        seq = self._seq
        self._seq = seq + 1
        cal = self._cal
        if cal is not None:
            cal.push((time, seq, callback, args))
        else:
            queue = self._queue
            heappush(queue, (time, seq, callback, args))
            if len(queue) >= self._threshold:
                self._activate_calendar()

    def __len__(self) -> int:
        """Number of pending (live) events; O(1)."""
        cal = self._cal
        backlog = cal.count if cal is not None else len(self._queue)
        return backlog - len(self._cancelled)

    def entries_through(self, limit: float) -> list[tuple]:
        """Every pending entry with ``time <= limit``, in no particular order.

        A timer's entry is listed at the timer's armed ``(deadline, seq)``,
        and only when that is due by ``limit``: what the queue would hold
        with one entry per arming. Nothing is removed and the clock does not
        move.
        """
        cal = self._cal
        if cal is not None:
            found = cal.entries_through(limit)
        else:
            found = [entry for entry in self._queue if entry[0] <= limit]
        cancelled = self._cancelled
        if cancelled:
            found = [entry for entry in found if entry[1] not in cancelled]
        surface = Timer._surface
        if surface in map(itemgetter(2), found):
            timers = [entry[3] for entry in found if entry[2] is surface]
            found = [entry for entry in found if entry[2] is not surface]
            for args in timers:
                if args[0]._deadline <= limit:
                    found.append((args[0]._deadline, args[0]._seq, surface, args))
        return found

    def peek_entry(self) -> tuple | None:
        """The next queued live entry, left in the queue; ``None`` when idle.

        Dead entries are discarded as they surface; a timer's entry is shown
        under the key it is queued at. Peeking never moves the clock or the
        calendar's scan position, so entries pushed afterwards may still
        sort before the peeked one.
        """
        cal = self._cal
        if cal is not None:
            return cal.peek(self._cancelled)
        queue = self._queue
        cancelled = self._cancelled
        while queue and queue[0][1] in cancelled:
            cancelled.discard(queue[0][1])
            heappop(queue)
        return queue[0] if queue else None

    def pop_entry(self) -> tuple | None:
        """Remove and return the next queued live entry; ``None`` when idle."""
        cal = self._cal
        if cal is not None:
            return cal.pop(None, self._cancelled)
        entry = self.peek_entry()
        if entry is not None:
            heappop(self._queue)
        return entry

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue, stopping before the first event later than
        ``until`` or once ``max_events`` events ran (a safety valve against
        runaway simulations); returns the events this call executed (a
        timer's re-queue is none).

        Raises :class:`SimulationError` when a popped entry lies before the
        one popped last (or before ``now`` when the call starts): some path
        queued an event in the past. One float comparison per pop; an entry
        popped out of order surfaces here too, as the earlier entry it
        skipped.
        """
        executed = 0
        last = self.now
        batch = self._batch_handlers
        bounded = max_events is not None
        timed = until is not None
        try:
            while True:
                if self._cal is None:
                    queue = self._queue
                    cancelled = self._cancelled
                    pop = heappop
                    while queue:
                        if bounded and executed >= max_events:
                            break
                        if timed or cancelled:
                            # Peek before popping: the head may be beyond
                            # ``until`` or a dead entry to be discarded.
                            entry = queue[0]
                            if cancelled and entry[1] in cancelled:
                                cancelled.discard(entry[1])
                                pop(queue)
                                continue
                            if timed and entry[0] > until:
                                break
                            pop(queue)
                            time, seq, callback, args = entry
                        else:
                            # Hot path: nothing to filter, pop straight away.
                            time, seq, callback, args = pop(queue)
                        if time < last:
                            raise SimulationError(
                                f"sim-time monotonicity violated: an event at "
                                f"{time!r} was popped after time {last!r}"
                            )
                        last = time
                        if (handler := batch.get(callback)) is not None:
                            self.now = time
                            budget = max_events - executed if bounded else None
                            executed += handler(time, seq, args, until, budget)
                            continue
                        self.now = time
                        callback(*args)
                        executed += 1
                        # Local aliases stay valid across callbacks: the dead
                        # set is mutated in place, and migration drains the
                        # queue in place and lets this loop exit into the
                        # calendar loop below.
                    if self._cal is None:
                        break
                    # A callback's push crossed the calendar threshold:
                    # continue on the calendar backend.
                    continue
                cal = self._cal
                cancelled = self._cancelled
                cal_until = until if timed else None
                while True:
                    if bounded and executed >= max_events:
                        break
                    entry = cal.pop(cal_until, cancelled)
                    if entry is None:
                        break
                    time, seq, callback, args = entry
                    if time < last:
                        raise SimulationError(
                            f"sim-time monotonicity violated: an event at "
                            f"{time!r} was popped after time {last!r}"
                        )
                    last = time
                    if (handler := batch.get(callback)) is not None:
                        self.now = time
                        budget = max_events - executed if bounded else None
                        executed += handler(time, seq, args, until, budget)
                        continue
                    self.now = time
                    callback(*args)
                    executed += 1
                break
        finally:
            # The counter is batched per run() rather than per event; the
            # finally block keeps it accurate if a callback raises.
            self.events_executed += executed
        if timed and until > self.now:
            self.now = until
        return executed


class Timer:
    """A restartable one-shot timer bound to an :class:`EventScheduler`.

    The reliability layer's retransmission, pull and delayed-ACK timers:
    ``start`` (re)arms the timer, ``cancel`` disarms it, and the callback
    runs at most once per arming, at the last armed deadline. Such timers
    are nearly always restarted or stopped before they expire (Varghese &
    Lauck, SOSP '87), so a restart is not a queue operation; the timer owns
    its deadline and keeps at most one live queue entry:

    * each ``start`` reserves the sequence number ``push_at`` would draw, so
      the armed key ``(deadline, seq)`` and every other entry's key are what
      one queue entry per arming would give;
    * a re-arm at or after the live entry's key only records the new key; a
      re-arm earlier, or a ``cancel``, marks the live entry dead;
    * a live entry that surfaces under a stale key re-queues itself at the
      armed key, which is not an event: ``run()`` neither counts it nor
      charges it to ``max_events``.

    A cancelled entry is marked dead rather than left to surface as a no-op:
    it outlives the last real event of every reliable round, and draining it
    would move the final clock out by up to one timeout.
    """

    __slots__ = ("_scheduler", "_callback", "_deadline", "_seq", "_queued")

    def __init__(self, scheduler: EventScheduler, callback: Callable[[], None]) -> None:
        self._scheduler = scheduler
        self._callback = callback
        self._deadline = 0.0
        #: Sequence number of the armed deadline; ``None`` while disarmed.
        self._seq: int | None = None
        #: ``(time, seq)`` of the timer's one live queue entry, or ``None``.
        self._queued: tuple[float, int] | None = None

    @property
    def active(self) -> bool:
        """True while an armed deadline is pending."""
        return self._seq is not None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        scheduler = self._scheduler
        self._deadline = scheduler.now + delay
        self._seq = scheduler.reserve_seqs(1)
        queued = self._queued
        if queued is not None:
            if self._deadline >= queued[0]:
                return
            scheduler._cancelled.add(queued[1])
        self._push_armed()

    def cancel(self) -> None:
        """Disarm the timer; a cancelled deadline never fires."""
        if self._queued is not None:
            self._scheduler._cancelled.add(self._queued[1])
            self._queued = None
        self._seq = None

    def _push_armed(self) -> None:
        entry = (self._deadline, self._seq, Timer._surface, (self,))
        self._queued = entry[:2]
        self._scheduler.push_entry(entry)

    def _surface(self) -> int:
        """The live entry came due: fire (1 event), or move to the armed
        key (0 events); returns that count."""
        if self._seq != self._queued[1]:
            self._push_armed()
            return 0
        self._seq = self._queued = None
        self._callback()
        return 1


def _surface_timer(
    time: float, seq: int, args: tuple, until: float | None, budget: int | None
) -> int:
    """Batch handler of a timer's entry (see :meth:`Timer._surface`)."""
    return args[0]._surface()


#: The batch handler every scheduler keeps for timer entries.
_TIMER_HANDLER = {Timer._surface: _surface_timer}

"""Timer oracle: restartable timers against a plain model of one entry per arming.

A :class:`Timer` keeps at most one live queue entry and moves it lazily, so
the queue does not hold what the model holds. What must agree is everything
a caller can see: each timer fires once, at its last armed ``(deadline,
seq)``, in one global order with plain ``push_at`` events; ``run()`` counts
only dispatched events (a re-queue is none) and stops at the same ``(now,
events)`` under ``until`` and ``max_events``; and ``len(scheduler)`` counts
live events. Every case runs on the heap, on the calendar from the first
push and across a mid-run migration.
"""

from __future__ import annotations

import random

import pytest

from repro.core.functions import SUM, aggregate_pairs
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.netsim import events as events_module
from repro.netsim.events import EventScheduler, Timer
from repro.netsim.simulator import SimulatorConfig
from repro.netsim.topology import single_rack

#: Heap only, calendar from the first push, and a migration mid-run.
BACKENDS = {"heap": 10**9, "calendar": 1, "migrating": 6}

#: Delays drawn for pushes and arms: zero, ties and far deadlines.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5)

TIMERS = 4

SEEDS = range(40)


def actions(seed: int, label: tuple) -> list[tuple]:
    """What dispatching ``label`` does: up to two pushes, arms or cancels.

    Drawn from ``(seed, label)`` alone, so both sides do the same things. A
    fired timer re-arms itself half the time; a label's last field (an
    event's depth, a timer's fire count) ends the cascade at 3.
    """
    if label[-1] >= 3:
        return []
    rng = random.Random(f"{seed}:{label!r}")
    ops: list[tuple] = []
    if label[0] == "timer" and rng.random() < 0.5:
        ops.append(("start", label[1], rng.choice(DELAYS)))
    for i in range(rng.randrange(3)):
        kind = rng.choice(("push", "start", "start", "cancel"))
        if kind == "push":
            ops.append(("push", rng.choice(DELAYS), ("event", label, i, label[-1] + 1)))
        elif kind == "start":
            ops.append(("start", rng.randrange(TIMERS), rng.choice(DELAYS)))
        else:
            ops.append(("cancel", rng.randrange(TIMERS)))
    return ops


def script(seed: int) -> list[tuple]:
    """Top-level steps: pushes, arms, cancels and runs cut by time or count."""
    rng = random.Random(seed)
    steps: list[tuple] = []
    for step in range(rng.randrange(8, 24)):
        roll = rng.random()
        if roll < 0.25:
            steps.append(("push", rng.choice(DELAYS), ("event", "top", step, 0)))
        elif roll < 0.55:
            steps.append(("start", rng.randrange(TIMERS), rng.choice(DELAYS)))
        elif roll < 0.7:
            steps.append(("cancel", rng.randrange(TIMERS)))
        elif roll < 0.85:
            steps.append(("until", rng.choice((0.0, 0.3, 1.0, 2.5))))
        else:
            steps.append(("cap", rng.randrange(4)))
    steps.append(("drain",))
    return steps


class Side:
    """What both sides share: the script interpreter and the trace."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fires = [0] * TIMERS
        self.trace: list[tuple[float, tuple]] = []

    def play(self, step: tuple) -> int | None:
        kind = step[0]
        if kind == "push":
            self.push(step[1], step[2])
        elif kind == "start":
            self.start(step[1], step[2])
        elif kind == "cancel":
            self.cancel(step[1])
        elif kind == "until":
            return self.run(until=self.now + step[1])
        elif kind == "cap":
            return self.run(max_events=step[1])
        else:
            return self.run()
        return None

    def dispatched(self, label: tuple) -> None:
        self.trace.append((self.now, label))
        for op in actions(self.seed, label):
            self.play(op)

    def fired(self, timer: int) -> None:
        self.fires[timer] += 1
        self.dispatched(("timer", timer, self.fires[timer]))


class Model(Side):
    """One entry per arming: a timer is its armed key or nothing."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.now = 0.0
        self.seq = 0
        self.plain: list[tuple[float, int, tuple]] = []
        self.armed: list[tuple[float, int] | None] = [None] * TIMERS
        self.executed = 0

    def push(self, delay: float, label: tuple) -> None:
        self.plain.append((self.now + delay, self.seq, label))
        self.seq += 1

    def start(self, timer: int, delay: float) -> None:
        self.armed[timer] = (self.now + delay, self.seq)
        self.seq += 1

    def cancel(self, timer: int) -> None:
        self.armed[timer] = None

    def __len__(self) -> int:
        return len(self.plain) + sum(armed is not None for armed in self.armed)

    def active(self) -> list[bool]:
        return [armed is not None for armed in self.armed]

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        executed = 0
        while max_events is None or executed < max_events:
            heads = [(time, seq, label, None) for time, seq, label in self.plain]
            heads += [
                (*armed, None, timer)
                for timer, armed in enumerate(self.armed)
                if armed is not None
            ]
            if not heads:
                break
            time, seq, label, timer = min(heads, key=lambda head: head[:2])
            if until is not None and time > until:
                break
            self.now = time
            executed += 1
            self.executed += 1
            if timer is None:
                self.plain.remove((time, seq, label))
                self.dispatched(label)
            else:
                self.armed[timer] = None
                self.fired(timer)
        if until is not None and until > self.now:
            self.now = until
        return executed


class Driven(Side):
    """The same script on an :class:`EventScheduler` and real timers."""

    def __init__(self, seed: int, threshold: int) -> None:
        super().__init__(seed)
        self.scheduler = EventScheduler(calendar_threshold=threshold)
        self.timers = [
            Timer(self.scheduler, lambda timer=timer: self.fired(timer))
            for timer in range(TIMERS)
        ]

    @property
    def now(self) -> float:
        return self.scheduler.now

    def push(self, delay: float, label: tuple) -> None:
        self.scheduler.push_at(self.now + delay, self.dispatched, (label,))

    def start(self, timer: int, delay: float) -> None:
        self.timers[timer].start(delay)

    def cancel(self, timer: int) -> None:
        self.timers[timer].cancel()

    def active(self) -> list[bool]:
        return [timer.active for timer in self.timers]

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        return self.scheduler.run(until=until, max_events=max_events)


def assert_agree(driven: Driven, model: Model) -> None:
    scheduler = driven.scheduler
    assert driven.trace == model.trace
    assert scheduler.now == model.now
    assert scheduler.events_executed == model.executed
    assert len(scheduler) == len(model)
    assert driven.active() == model.active()


class TestTimerOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_timers_fire_once_at_their_last_armed_key(self, seed, backend):
        model = Model(seed)
        driven = Driven(seed, BACKENDS[backend])
        for step in script(seed):
            assert driven.play(step) == model.play(step)
            assert_agree(driven, model)
        assert len(driven.scheduler) == 0

    def test_the_scripts_reach_every_case(self):
        """Later, equal and earlier re-arms, cancels of armed and of idle
        timers, re-arms from a timer's own callback, and a migration that
        happens mid-run, each in some seed."""
        seen: set[str] = set()
        for seed in SEEDS:
            model = Model(seed)
            driven = Driven(seed, BACKENDS["migrating"])
            start, cancel, fired = model.start, model.cancel, model.fired

            def tracked_start(timer, delay, model=model):
                armed = model.armed[timer]
                if armed is not None:
                    deadline = model.now + delay
                    seen.add(
                        "later" if deadline > armed[0]
                        else "equal" if deadline == armed[0] else "earlier"
                    )
                start(timer, delay)

            def tracked_cancel(timer, model=model):
                seen.add("cancel armed" if model.armed[timer] else "cancel idle")
                cancel(timer)

            def tracked_fired(timer, model=model):
                fired(timer)
                if model.armed[timer] is not None:
                    seen.add("re-arm in callback")

            model.start, model.cancel, model.fired = tracked_start, tracked_cancel, tracked_fired
            for step in script(seed):
                before = driven.scheduler.calendar_active
                driven.play(step)
                model.play(step)
                if step[0] in ("until", "cap", "drain") and not before:
                    if driven.scheduler.calendar_active:
                        seen.add("migrated mid-run")
        assert seen == {
            "later",
            "equal",
            "earlier",
            "cancel armed",
            "cancel idle",
            "re-arm in callback",
            "migrated mid-run",
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_event_cap_counts_only_dispatched_events(self, backend):
        """Cut at every ``max_events`` over a schedule whose timers hold
        entries under stale keys: each cut executes exactly ``k`` events and
        stops where the model stops."""
        setup = [
            ("start", 0, 1.0),
            ("start", 0, 2.0),  # later: the entry at 1.0 re-queues
            ("start", 1, 0.5),
            ("start", 1, 0.5),  # same deadline, later seq
            ("push", 0.5, ("event", "a", 0, 3)),
            ("start", 2, 3.5),
            ("start", 2, 0.25),  # earlier: the entry at 3.5 is dead
            ("push", 1.0, ("event", "b", 0, 3)),
            ("start", 3, 2.0),
            ("push", 2.0, ("event", "c", 0, 3)),
            ("start", 3, 3.5),
        ]
        total = Model(0)
        for step in setup:
            total.play(step)
        events = total.play(("drain",))
        stale = 0
        for k in range(events + 1):
            model, driven = Model(0), Driven(0, BACKENDS[backend])
            for step in setup:
                model.play(step)
                driven.play(step)
            assert driven.play(("cap", k)) == model.play(("cap", k)) == k
            assert_agree(driven, model)
            stale += any(
                timer._queued is not None and timer._queued[1] != timer._seq
                for timer in driven.timers
            )
            assert driven.play(("drain",)) == model.play(("drain",)) == events - k
            assert_agree(driven, model)
            assert model.trace == total.trace
        assert 0 < stale < events

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_later_rearms_leave_one_queued_entry(self, backend):
        scheduler = EventScheduler(calendar_threshold=BACKENDS[backend])
        scheduler.push_at(0.0, lambda: None, ())
        scheduler.run()
        fired: list[float] = []
        timer = Timer(scheduler, lambda: fired.append(scheduler.now))
        for i in range(10_000):
            timer.start(1.0 + i * 1e-4)
        queued = scheduler._cal.count if scheduler.calendar_active else len(scheduler._queue)
        assert queued == 1
        assert len(scheduler) == 1
        assert scheduler.run() == 1
        assert fired == [1.0 + 9_999 * 1e-4]
        assert len(scheduler) == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_peek_and_pop_skip_dead_entries(self, backend):
        scheduler = EventScheduler(calendar_threshold=BACKENDS[backend])
        timer = Timer(scheduler, lambda: None)
        timer.start(1.0)
        timer.cancel()
        timer.cancel()  # idempotent: no second mark
        scheduler.push_at(5.0, lambda: None, ())
        assert len(scheduler) == 1
        assert scheduler.peek_entry()[:2] == (5.0, 1)
        assert scheduler.pop_entry()[:2] == (5.0, 1)
        assert scheduler.pop_entry() is None
        assert len(scheduler) == 0


class TestQuiescence:
    @pytest.mark.parametrize("calendar", [False, True], ids=["heap", "calendar"])
    def test_a_round_ends_at_its_last_live_event(self, monkeypatch, calendar):
        """Senders cancel their retransmission timers as the last ACKs
        land; those deadlines lie past the round's last event, and the
        clock must not move out to them."""
        if calendar:
            monkeypatch.setattr(events_module, "CALENDAR_THRESHOLD", 1)
        dead: list[float] = []
        cancel = Timer.cancel

        def recording_cancel(timer: Timer) -> None:
            if timer.active:
                dead.append(timer._deadline)
            cancel(timer)

        monkeypatch.setattr(Timer, "cancel", recording_cancel)
        config = DaietConfig(register_slots=64, pairs_per_packet=4, reliability=True)
        system = DaietSystem(
            single_rack(4, loss_rate=0.05),
            config=config,
            simulator_config=SimulatorConfig(loss_seed=11),
        )
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        sent = {m: [(f"key{i}", i + 1) for i in range(40)] for m in ("h0", "h1", "h2")}
        for mapper, pairs in sent.items():
            system.send_pairs(mapper, "h3", pairs)
        scheduler = system.simulator.scheduler
        last_live = scheduler.now
        while scheduler.run(max_events=1):
            last_live = scheduler.now
        assert scheduler.calendar_active == calendar
        assert len(scheduler) == 0
        assert scheduler.now == last_live
        assert max(dead) > last_live
        truth = aggregate_pairs([pair for pairs in sent.values() for pair in pairs], SUM)
        assert system.receiver("h3").result() == truth

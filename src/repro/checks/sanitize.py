"""Runtime sanitizer: conservation ledger, scheduler and register checks.

Enabled with ``REPRO_SANITIZE=1`` (or ``repro <experiment> --sanitize``),
the sanitizer attaches to one :class:`~repro.netsim.simulator.NetworkSimulator`
instance:

* a **conservation ledger** asserting, per packet class, that
  ``sent + switch_out == delivered + lost_or_dropped + switch_in + faulted
  + unprotected`` once the event queue drains (and that in-flight never goes
  negative mid-run); ``faulted`` holds the simulator's ``fault`` drops
  (packets destroyed by crashed devices or downed links, see
  :mod:`repro.netsim.faults`), and ``unprotected`` counts drops on trees
  deliberately run under a reduced reliability policy (``sampled`` /
  ``best_effort``);
* **sim-time monotonicity** and **dispatch-order** checks on every event,
  plus periodic **backend structural invariants** (binary-heap property on
  the heap backend; bucket filing and per-bucket heap property on the
  calendar backend);
* **register-leak detection**: occupied aggregation cells must exactly
  match the index stack, and after a round completes (final flush done, no
  round in progress) every slot must have rearmed to empty.

The ledger is an observer (:meth:`NetworkSimulator.add_observer`): the
simulator tells it of every send, delivery, switch pass, drop (with its
reason) and ECN mark, so it infers nothing and wraps nothing, and it reads
the same whatever else is attached and in whatever order. Cost model: its
hooks are compiled into the shipped sinks, so it checks the code plain runs
use, and when it is off none is bound. Its ``on_switch`` notice takes the
batch handlers away (every switch pass is seen), so windows go item by item.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.errors import SanitizerError
from repro.netsim.simulator import MAX_EVENTS

__all__ = [
    "ConservationLedger",
    "SANITIZE_ENV",
    "SimulatorSanitizer",
    "install_sanitizer",
    "sanitize_enabled_in_env",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import NetworkSimulator

#: Environment switch; truthy values enable the sanitizer.
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitize_enabled_in_env() -> bool:
    """True when :data:`SANITIZE_ENV` requests sanitized runs."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


class ConservationLedger:
    """Per-packet-class counters for the conservation invariant.

    At quiescence every class must satisfy ``sent + switch_out ==
    delivered + lost_or_dropped + switch_in + faulted + unprotected``;
    mid-run the difference (packets in flight) must never go negative —
    a negative balance means a phantom delivery or an unaccounted emission.
    """

    def __init__(self) -> None:
        self.sent: dict[str, int] = {}
        self.delivered: dict[str, int] = {}
        self.lost_or_dropped: dict[str, int] = {}
        self.switch_in: dict[str, int] = {}
        self.switch_out: dict[str, int] = {}
        #: Packets destroyed by an injected fault (crashed device, downed
        #: link). A separate consumed-side bucket — not folded into
        #: ``lost_or_dropped`` — so churn runs under ``REPRO_SANITIZE=1``
        #: balance without hiding fault damage inside ordinary loss.
        self.faulted: dict[str, int] = {}
        #: Packets dropped on a tree that deliberately runs without (full)
        #: retransmission — ``reliability_policy`` ``"sampled"`` or
        #: ``"best_effort"``. A separate consumed-side bucket so accepted
        #: approximation loss is never conflated with ``faulted`` damage or
        #: ordinary congestion loss; the conservation equation still closes
        #: at quiescence with it on the consumed side.
        self.unprotected: dict[str, int] = {}
        #: Packets ECN-marked in flight (the simulator's ``on_mark`` notices,
        #: one per CE False->True transition). Marked packets still flow to a
        #: consumer bucket, so this tally sits *outside* the conservation equation —
        #: it is cross-checked against ``TrafficStats.ecn_marked`` instead,
        #: so a mark the stats missed (or vice versa) is never silent.
        self.marked: dict[str, int] = {}

    @staticmethod
    def count(table: dict[str, int], packet: Any) -> None:
        """Add ``packet`` to one counter table, under its class name."""
        cls = type(packet).__name__
        table[cls] = table.get(cls, 0) + 1

    def classes(self) -> list[str]:
        """Every packet class seen by any counter, sorted."""
        names: set[str] = set()
        for table in (
            self.sent,
            self.delivered,
            self.lost_or_dropped,
            self.switch_in,
            self.switch_out,
            self.faulted,
            self.unprotected,
        ):
            names.update(table)
        return sorted(names)

    def in_flight(self, cls: str) -> int:
        """Injected-or-emitted minus accounted-for, for one packet class."""
        produced = self.sent.get(cls, 0) + self.switch_out.get(cls, 0)
        consumed = (
            self.delivered.get(cls, 0)
            + self.lost_or_dropped.get(cls, 0)
            + self.switch_in.get(cls, 0)
            + self.faulted.get(cls, 0)
            + self.unprotected.get(cls, 0)
        )
        return produced - consumed

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Copy of every counter table (diagnostics and tests)."""
        return {
            "sent": dict(self.sent),
            "delivered": dict(self.delivered),
            "lost_or_dropped": dict(self.lost_or_dropped),
            "switch_in": dict(self.switch_in),
            "switch_out": dict(self.switch_out),
            "faulted": dict(self.faulted),
            "unprotected": dict(self.unprotected),
            "marked": dict(self.marked),
        }

    def check(self, *, quiescent: bool) -> None:
        """Raise :class:`SanitizerError` on a conservation violation."""
        for cls in self.classes():
            balance = self.in_flight(cls)
            if balance < 0:
                raise SanitizerError(
                    f"conservation violated for {cls}: "
                    f"{-balance} more packets accounted for than were ever "
                    f"sent or emitted (sent={self.sent.get(cls, 0)}, "
                    f"switch_out={self.switch_out.get(cls, 0)}, "
                    f"delivered={self.delivered.get(cls, 0)}, "
                    f"lost_or_dropped={self.lost_or_dropped.get(cls, 0)}, "
                    f"switch_in={self.switch_in.get(cls, 0)}, "
                    f"faulted={self.faulted.get(cls, 0)}, "
                    f"unprotected={self.unprotected.get(cls, 0)})"
                )
            if quiescent and balance != 0:
                raise SanitizerError(
                    f"conservation violated for {cls}: {balance} packets "
                    "unaccounted for at quiescence (sent + switch_out != "
                    "delivered + lost_or_dropped + switch_in + faulted "
                    "+ unprotected)"
                )


class SimulatorSanitizer:
    """Installs and drives every runtime check on one simulator instance."""

    def __init__(self, sim: "NetworkSimulator", heap_check_interval: int = 4096) -> None:
        self.sim = sim
        self.ledger = ConservationLedger()
        #: Structural backend checks are O(pending events), so they run every
        #: ``heap_check_interval`` dispatched events rather than on each one.
        self.heap_check_interval = heap_check_interval
        self._installed = False

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> "SimulatorSanitizer":
        """Attach the ledger to the simulator and take over its run loop."""
        if self._installed:
            return self
        sim = self.sim
        sim.add_observer(self)
        sim.run = self._run
        sim.sanitizer = self
        self._installed = True
        return self

    # ------------------------------------------------------------------ #
    # Observer hooks feeding the conservation ledger
    # ------------------------------------------------------------------ #
    def on_send(self, packet: Any) -> None:
        self.ledger.count(self.ledger.sent, packet)

    def on_deliver(self, packet: Any) -> None:
        self.ledger.count(self.ledger.delivered, packet)

    def on_switch(self, packet: Any, outputs: Any) -> None:
        ledger = self.ledger
        ledger.count(ledger.switch_in, packet)
        for _port, out_packet in outputs:
            ledger.count(ledger.switch_out, out_packet)

    def on_drop(self, reason: str, where: str, packet: Any) -> None:
        ledger = self.ledger
        policy = self.sim.tree_policies.get(getattr(packet, "tree_id", None), "exact")
        if reason == "fault":
            ledger.count(ledger.faulted, packet)
        elif policy != "exact":
            # Drops on a tree that *chose* reduced reliability file under
            # ``unprotected`` — accepted approximation loss, not damage.
            ledger.count(ledger.unprotected, packet)
        else:
            ledger.count(ledger.lost_or_dropped, packet)

    def on_mark(self, link_name: str, packet: Any) -> None:
        self.ledger.count(self.ledger.marked, packet)

    # ------------------------------------------------------------------ #
    # Sanitized run loop
    # ------------------------------------------------------------------ #
    def _run(self, until: float | None = None) -> int:
        """Step-by-step replacement for :meth:`NetworkSimulator.run`.

        Mirrors the scheduler's ``run`` semantics (stop past ``until``,
        honour ``MAX_EVENTS``, advance the clock to ``until`` at the end)
        while checking monotonicity and dispatch order on every event and
        the backend structure periodically.
        """
        sim = self.sim
        scheduler = sim.scheduler
        interval = self.heap_check_interval
        executed = 0
        last_time = scheduler.now
        while executed < MAX_EVENTS:
            next_time = scheduler.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            if next_time < last_time:
                raise SanitizerError(
                    f"sim-time monotonicity violated: next event at "
                    f"{next_time!r} lies before the current time {last_time!r}"
                )
            if not scheduler.step():
                break
            if scheduler.now != next_time:
                raise SanitizerError(
                    f"dispatch-order violation: peeked head at {next_time!r} "
                    f"but the scheduler executed an event at {scheduler.now!r}"
                )
            last_time = scheduler.now
            executed += 1
            if executed % interval == 0:
                self.check_backend_invariant()
        if until is not None and until > scheduler.now:
            scheduler.now = until
        executed += sim._synthetic_events
        sim._synthetic_events = 0
        self.check()
        return executed

    # ------------------------------------------------------------------ #
    # Invariant checks
    # ------------------------------------------------------------------ #
    def check_backend_invariant(self) -> None:
        """Structural invariants of the active scheduler backend."""
        scheduler = self.sim.scheduler
        cal = scheduler._cal
        if cal is None:
            queue = scheduler._queue
            for i in range(1, len(queue)):
                parent = (i - 1) >> 1
                if queue[i] < queue[parent]:
                    raise SanitizerError(
                        f"heap invariant violated at index {i}: entry "
                        f"t={queue[i][0]!r} sorts before its parent "
                        f"t={queue[parent][0]!r}"
                    )
            return
        total = 0
        inv = cal.inv_width
        mask = cal.mask
        for index, bucket in enumerate(cal.buckets):
            total += len(bucket)
            for i in range(1, len(bucket)):
                parent = (i - 1) >> 1
                if bucket[i] < bucket[parent]:
                    raise SanitizerError(
                        f"calendar bucket {index} heap invariant violated "
                        f"at index {i}"
                    )
            for entry in bucket:
                expected = int(entry[0] * inv) & mask
                if expected != index:
                    raise SanitizerError(
                        f"calendar entry t={entry[0]!r} filed in bucket "
                        f"{index} but belongs in bucket {expected}"
                    )
        if total != cal.count:
            raise SanitizerError(
                f"calendar count {cal.count} does not match the "
                f"{total} entries actually stored"
            )

    def check_registers(self) -> None:
        """Aggregation register-leak checks across every switch."""
        for device in self.sim.topology.switches():
            engine = device.switch.externs.get("daiet")
            if engine is None:
                continue
            for tree_id, state in engine.trees():
                self._check_tree(device.name, tree_id, state)

    def _check_tree(self, switch_name: str, tree_id: int, state: Any) -> None:
        where = f"switch {switch_name!r} tree {tree_id}"
        stack = list(state.index_stack.peek_all())
        stack_set = set(stack)
        if len(stack_set) != len(stack):
            duplicates = sorted({i for i in stack if stack.count(i) > 1})
            raise SanitizerError(
                f"{where}: index stack holds duplicate slots ({duplicates})"
            )
        occupied = set(np.flatnonzero(state.key_register >= 0).tolist())
        leaked = occupied - stack_set
        if leaked:
            raise SanitizerError(
                f"{where}: register slots {sorted(leaked)} hold keys but are "
                "not recorded on the index stack; they would never be "
                "flushed or rearmed"
            )
        orphaned = stack_set - occupied
        if orphaned:
            raise SanitizerError(
                f"{where}: index stack records slots {sorted(orphaned)} whose "
                "key cells are empty; the final flush would read empty slots"
            )
        for index in sorted(occupied):
            if state.value_register.is_empty(index):
                raise SanitizerError(
                    f"{where}: slot {index} holds a key but no value"
                )
        # After a completed round — the final flush ran and no new round has
        # started (no child's END counted yet) — every slot must have rearmed
        # to the empty state.
        round_complete = (
            state.counters.final_flushes > 0
            and state.remaining_children == state.num_children
        )
        if round_complete:
            if occupied:
                raise SanitizerError(
                    f"{where}: slots {sorted(occupied)} did not rearm to "
                    "empty after the round's final flush"
                )
            if len(state.spillover):
                raise SanitizerError(
                    f"{where}: spillover bucket still holds "
                    f"{len(state.spillover)} pairs after the round's final "
                    "flush"
                )

    def check(self) -> None:
        """Run every invariant check; raise on the first violation."""
        self.check_backend_invariant()
        scheduler = self.sim.scheduler
        self.ledger.check(quiescent=len(scheduler) == 0)
        ledger_marks = sum(self.ledger.marked.values())
        stats_marks = self.sim.stats.total_ecn_marked()
        if ledger_marks != stats_marks:
            raise SanitizerError(
                f"ECN mark accounting diverged: the ledger was told of "
                f"{ledger_marks} CE transitions but TrafficStats recorded "
                f"{stats_marks} marks"
            )
        self.check_registers()


def install_sanitizer(sim: "NetworkSimulator") -> SimulatorSanitizer:
    """Create and install a :class:`SimulatorSanitizer` on ``sim``."""
    return SimulatorSanitizer(sim).install()

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
* periodic **backend structural invariants** (binary-heap property on the
  heap backend; bucket filing and per-bucket heap property on the calendar
  backend; every dead-set mark names a queued entry), each time the packets
  the ledger has counted cross a multiple of :data:`HEAP_CHECK_INTERVAL` and
  when a run stops (sim-time monotonicity is the scheduler's own check, on
  every run);
* **register-leak detection**: occupied aggregation cells must exactly
  match the index stack, a free cell must hold no value, and after a round
  completes (final flush done, no round in progress) every slot must have
  rearmed to empty.

The ledger is an observer (:meth:`NetworkSimulator.add_observer`): the
simulator tells it of every send, delivery, switch pass, drop (with its
reason) and ECN mark, so it infers nothing and wraps nothing, and it reads
the same whatever else is attached and in whatever order. ``run()`` ends
with :meth:`SimulatorSanitizer.check`. Cost model: its hooks are compiled
into the shipped sinks and batch handlers, and a window or a batch is one
notice, so a sanitized run takes the plain run loop, window delivery and
the register kernel; when it is off none is bound.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.errors import SanitizerError
from repro.core.packet import DaietPacket, PacketWindow

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

#: Structural backend checks are O(pending events), so they run once every
#: this many packets counted by the ledger rather than on each notice.
HEAP_CHECK_INTERVAL = 4096


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
    def count(table: dict[str, int], packet: Any) -> int:
        """Add ``packet`` to one counter table, under its class name, and
        return how many packets that was.

        A window counts as its ``len`` DAIET packets, and an int as that
        many (a batch takes window DATA items only), so a notice told per
        window or per batch counts what per-packet notices would.
        """
        if isinstance(packet, int):
            cls, n = DaietPacket.__name__, packet
        elif isinstance(packet, PacketWindow):
            cls, n = DaietPacket.__name__, len(packet)
        else:
            cls, n = type(packet).__name__, 1
        table[cls] = table.get(cls, 0) + n
        return n

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
    """Every runtime check on one simulator instance, fed by its notices."""

    def __init__(self, sim: "NetworkSimulator") -> None:
        self.sim = sim
        self.ledger = ConservationLedger()
        #: Packets counted by :meth:`_tally` so far.
        self._packets = 0

    # ------------------------------------------------------------------ #
    # Observer hooks feeding the conservation ledger
    # ------------------------------------------------------------------ #
    def _tally(self, table: dict[str, int], packet: Any) -> None:
        """Count one notice; when the packets counted cross a multiple of
        :data:`HEAP_CHECK_INTERVAL`, check the scheduler's backend too."""
        before = self._packets
        self._packets = before + self.ledger.count(table, packet)
        if self._packets // HEAP_CHECK_INTERVAL != before // HEAP_CHECK_INTERVAL:
            self.check_backend_invariant()

    def on_send(self, packet: Any) -> None:
        self._tally(self.ledger.sent, packet)

    def on_deliver(self, packet: Any) -> None:
        self._tally(self.ledger.delivered, packet)

    def on_switch(self, taken: Any, outputs: Any) -> None:
        ledger = self.ledger
        for _port, out in outputs:
            ledger.count(ledger.switch_out, out)
        self._tally(ledger.switch_in, taken)

    def on_drop(self, reason: str, where: str, packet: Any) -> None:
        ledger = self.ledger
        policy = self.sim.tree_policies.get(getattr(packet, "tree_id", None), "exact")
        if reason == "fault":
            self._tally(ledger.faulted, packet)
        elif policy != "exact":
            # Drops on a tree that *chose* reduced reliability file under
            # ``unprotected`` — accepted approximation loss, not damage.
            self._tally(ledger.unprotected, packet)
        else:
            self._tally(ledger.lost_or_dropped, packet)

    def on_mark(self, link_name: str, packet: Any) -> None:
        self._tally(self.ledger.marked, packet)

    # ------------------------------------------------------------------ #
    # Invariant checks
    # ------------------------------------------------------------------ #
    def check_backend_invariant(self) -> None:
        """Structural invariants of the active scheduler backend, and that
        every dead-set mark names an entry still queued (a stray mark would
        skip a future event and skew ``len(scheduler)``)."""
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
            self._check_dead_set(queue)
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
        self._check_dead_set(entry for bucket in cal.buckets for entry in bucket)

    def _check_dead_set(self, entries: Any) -> None:
        dead = self.sim.scheduler._cancelled
        if dead and (stray := dead.difference(entry[1] for entry in entries)):
            raise SanitizerError(
                f"dead-set marks {sorted(stray)} name no queued entry: they "
                "would skip a future event and skew the pending count"
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
        held = len(state.spillover)
        if held >= state.config.pairs_per_packet:
            raise SanitizerError(
                f"{where}: spillover bucket holds {held} pairs, a packet's worth "
                f"({state.config.pairs_per_packet}) or more: a full bucket must "
                "already have flushed"
            )
        stray = np.flatnonzero((state.key_register < 0) & (state.value_register != 0))
        if len(stray):
            raise SanitizerError(
                f"{where}: free slots {stray.tolist()} hold a value that a "
                "flush or rearm left behind"
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
            if held:
                raise SanitizerError(
                    f"{where}: spillover bucket still holds {held} pairs after "
                    "the round's final flush"
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
    """Attach a :class:`SimulatorSanitizer` to ``sim``: its ledger takes the
    simulator's notices, and ``sim.run()`` ends with its :meth:`check`."""
    sanitizer = SimulatorSanitizer(sim)
    sim.add_observer(sanitizer)
    sim.sanitizer = sanitizer
    return sanitizer

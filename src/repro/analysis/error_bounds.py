"""Bounded-error accounting for degraded-mode (approximate) aggregation.

Trees running a reduced reliability policy (``sampled`` / ``best_effort``,
see ``DaietConfig.reliability_policy``) trade exactness for bytes: some
contributions are allowed to die on the wire. This module makes that trade
*auditable*. An :class:`ErrorBoundTracker` keeps per-tree contribution
ledgers — injected mass on one side, every observed loss on the other —
and reports an **a-posteriori error bound** on each aggregate:

* for SUM/COUNT trees the bound is an absolute L1 deficit: the sum of
  ``|value|`` over every pair observed lost — wire drops of DATA packets,
  partial aggregates wiped out of a crashed switch's registers, and mass
  *stranded* in switch registers at read time (a best-effort tree whose
  END marker died never triggers the final flush, so the registers keep
  the round's partial aggregates forever);
* for gradient-style tensors the same mass is additionally reported
  relative to the injected L1 mass.

The bound is *sound but not tight*: a retransmitted-then-lost packet is
counted once per lost copy and a recovered retransmission is never
subtracted, so the reported bound can exceed the realized error — it can
never undershoot it. Soundness rests on linearity of SUM: every lost pair
(original contribution or partial aggregate) maps its value onto exactly
one key's deficit, and ``|sum of losses| <= sum of |losses|``.

Loss capture is the simulator's: the tracker is an observer
(:meth:`NetworkSimulator.add_observer`) told of every drop, whatever its
reason (loss draw, full buffer, unconnected port, crashed device or downed
link), and of a switch about to lose its registers to a crash (which never
touches a link). It reads the same whether it is attached before or after
the fault injector and the sanitizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.packet import DaietPacket, DaietPacketType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.daiet import DaietSystem

__all__ = [
    "ErrorBoundTracker",
    "TreeErrorBound",
    "TreeErrorLedger",
    "install_error_tracker",
    "true_error_l1",
]


@dataclass
class TreeErrorLedger:
    """Raw per-tree contribution accounting (all mass in value units)."""

    tree_id: int
    policy: str = "exact"
    #: Application-injected mass (original sends only, never retransmits).
    injected_sum: int = 0
    injected_abs: int = 0
    injected_pairs: int = 0
    #: Mass of DATA pairs observed dropped in flight (per lost copy).
    lost_sum: int = 0
    lost_abs: int = 0
    lost_pairs: int = 0
    lost_packets: int = 0
    #: Mass of partial aggregates wiped out of crashed-switch registers.
    wiped_sum: int = 0
    wiped_abs: int = 0
    wiped_pairs: int = 0

    def record_injected(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        for _key, value in pairs:
            self.injected_sum += value
            self.injected_abs += abs(value)
            self.injected_pairs += 1

    def record_lost_packet(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        self.lost_packets += 1
        for _key, value in pairs:
            self.lost_sum += value
            self.lost_abs += abs(value)
            self.lost_pairs += 1

    def record_wiped(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        for _key, value in pairs:
            self.wiped_sum += value
            self.wiped_abs += abs(value)
            self.wiped_pairs += 1


@dataclass(frozen=True)
class TreeErrorBound:
    """The reported a-posteriori bound for one tree's aggregate."""

    tree_id: int
    policy: str
    #: Signed sum of every lost/wiped contribution: the bound on the
    #: *total*-sum deficit (exact for SUM by linearity when each copy is
    #: lost at most once; conservative otherwise).
    deficit_sum: int
    #: L1 bound: ``sum(|exact[k] - approx[k]|) <= abs_bound`` over all keys.
    abs_bound: int
    #: ``abs_bound`` relative to the injected L1 mass (gradient tensors).
    relative_bound: float
    injected_abs: int
    lost_pairs: int
    wiped_pairs: int
    #: Register slots still holding partial aggregates at read time (a lost
    #: END marker means the final flush never fired).
    stranded_pairs: int

    def contains(self, true_l1: int | float) -> bool:
        """Whether the bound covers an observed L1 error (twin-run check)."""
        return true_l1 <= self.abs_bound


def true_error_l1(
    exact: Mapping[Any, Any], approximate: Mapping[Any, Any]
) -> int:
    """Realized L1 error between an exact and an approximate aggregate."""
    total = 0
    for key in exact.keys() | approximate.keys():
        total += abs(exact.get(key, 0) - approximate.get(key, 0))
    return total


class ErrorBoundTracker:
    """Per-tree loss ledgers and error bounds for one :class:`DaietSystem`.

    Pure observer: its hooks only ever *watch* the packet stream, so a
    tracked run is event-for-event identical to an untracked one.
    """

    def __init__(self, system: "DaietSystem") -> None:
        self.system = system
        self.sim = system.simulator
        self.ledgers: dict[int, TreeErrorLedger] = {}
        self._installed = False

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> "ErrorBoundTracker":
        """Attach to the simulator's drop and wipe notices and to teardowns."""
        if self._installed:
            return self
        self.sim.add_observer(self)
        self._hook_teardown(self.system.controller)
        self.system.error_tracker = self
        self._installed = True
        return self

    def on_drop(self, reason: str, where: str, packet: Any) -> None:
        """A packet died in the network: book a DATA packet's mass as lost."""
        if type(packet) is DaietPacket:
            if packet.packet_type is DaietPacketType.DATA and packet.pairs:
                ledger = self._ledger(packet.tree_id)
                if ledger is not None:
                    ledger.record_lost_packet(packet.pairs)

    def _hook_teardown(self, controller: Any) -> None:
        """Capture register mass a tree teardown (re-plan) discards.

        ``replan_tree`` tears the old epoch down on every *surviving*
        switch; partial aggregates still parked in its registers are
        destroyed without any link event, exactly like a crash wipe.
        """
        real_teardown = controller._teardown_tree

        def teardown(tree: Any) -> None:
            ledger = self._ledger(tree.tree_id)
            if ledger is not None:
                for node in tree.switches():
                    device = self.sim.topology.get(node.name)
                    pairs = self._register_pairs(device, tree.tree_id)
                    if pairs:
                        ledger.record_wiped(pairs)
            real_teardown(tree)

        controller._teardown_tree = teardown

    @staticmethod
    def _register_pairs(device: Any, tree_id: int) -> list[tuple[Any, Any]]:
        """Pairs currently parked in one switch's registers for one tree."""
        switch = getattr(device, "switch", None)
        if switch is None:
            return []
        engine = switch.externs.get("daiet")
        if engine is None:
            return []
        state = engine._trees.get(tree_id)
        if state is None:
            return []
        # Vectorized trees park part of each slot's value in a delta array
        # until flush; fold it in before reading the cells.
        state.materialize()
        value_cells = state.value_register._cells
        key_cells = state.key_register._cells
        pairs = [
            (key_cells[idx], value_cells[idx])
            for idx in state.index_stack.peek_all()
        ]
        pairs.extend(state.spillover.peek())
        return pairs

    def on_wipe(self, device: Any) -> None:
        """A crash is about to destroy ``device``'s registers: book their mass."""
        engine = device.switch.externs.get("daiet")
        if engine is None:
            return
        for tree_id in sorted(engine._trees):
            ledger = self._ledger(tree_id)
            if ledger is None:
                continue
            pairs = self._register_pairs(device, tree_id)
            if pairs:
                ledger.record_wiped(pairs)

    # ------------------------------------------------------------------ #
    # Ledger feeds
    # ------------------------------------------------------------------ #
    def _ledger(self, tree_id: int) -> TreeErrorLedger | None:
        """The ledger for one tree; ``None`` for exact trees.

        Exact trees repair every loss by construction, so tracking their
        drops would only report bounds that are zero by definition.
        """
        ledger = self.ledgers.get(tree_id)
        if ledger is not None:
            return ledger
        policy = self.system.tree_policy(tree_id)
        if policy == "exact":
            return None
        ledger = TreeErrorLedger(tree_id=tree_id, policy=policy)
        self.ledgers[tree_id] = ledger
        return ledger

    def record_injected(self, tree_id: int, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Called by ``DaietSystem.send_pairs`` for original sends only."""
        ledger = self._ledger(tree_id)
        if ledger is not None:
            ledger.record_injected(pairs)

    def merge_epoch(self, old_id: int, new_id: int) -> None:
        """Fold a dead epoch's ledger into its replacement tree.

        Failover re-plans give the replacement a fresh tree id; the logical
        aggregate (and its deficit) spans the whole lineage, so the old
        epoch's mass must follow the reducer to the new id. Called by
        :meth:`repro.core.failover.FailoverManager.move_tree`.
        """
        old = self.ledgers.pop(old_id, None)
        if old is None:
            return
        new = self._ledger(new_id)
        if new is None:  # pragma: no cover - policies never change mid-lineage
            self.ledgers[old_id] = old
            return
        new.injected_sum += old.injected_sum
        new.injected_abs += old.injected_abs
        new.injected_pairs += old.injected_pairs
        new.lost_sum += old.lost_sum
        new.lost_abs += old.lost_abs
        new.lost_pairs += old.lost_pairs
        new.lost_packets += old.lost_packets
        new.wiped_sum += old.wiped_sum
        new.wiped_abs += old.wiped_abs
        new.wiped_pairs += old.wiped_pairs

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _stranded_mass(self, tree_id: int) -> tuple[int, int, int]:
        """Mass currently parked in live switch registers for one tree.

        A lost END marker on an unreliable tree means the final flush never
        fires: the round's partial aggregates sit in the registers at
        quiescence and will never reach the reducer. Read live (and
        non-destructively) at bound time so the computation is idempotent.
        """
        total = 0
        total_abs = 0
        pairs = 0
        for device in self.sim.topology.switches():
            for _key, value in self._register_pairs(device, tree_id):
                total += value
                total_abs += abs(value)
                pairs += 1
        return total, total_abs, pairs

    def bound(self, tree_id: int) -> TreeErrorBound:
        """The current error bound for one tree (zero for exact trees)."""
        ledger = self.ledgers.get(tree_id)
        if ledger is None:
            return TreeErrorBound(
                tree_id=tree_id,
                policy=self.system.tree_policy(tree_id),
                deficit_sum=0,
                abs_bound=0,
                relative_bound=0.0,
                injected_abs=0,
                lost_pairs=0,
                wiped_pairs=0,
                stranded_pairs=0,
            )
        stranded_sum, stranded_abs, stranded_pairs = self._stranded_mass(tree_id)
        abs_bound = ledger.lost_abs + ledger.wiped_abs + stranded_abs
        injected = ledger.injected_abs
        return TreeErrorBound(
            tree_id=ledger.tree_id,
            policy=ledger.policy,
            deficit_sum=ledger.lost_sum + ledger.wiped_sum + stranded_sum,
            abs_bound=abs_bound,
            relative_bound=(abs_bound / injected) if injected else 0.0,
            injected_abs=injected,
            lost_pairs=ledger.lost_pairs,
            wiped_pairs=ledger.wiped_pairs,
            stranded_pairs=stranded_pairs,
        )


def install_error_tracker(system: "DaietSystem") -> ErrorBoundTracker:
    """Create and install an :class:`ErrorBoundTracker` on ``system``."""
    return ErrorBoundTracker(system).install()

"""Controller failover: crash detection, tree re-planning and replay.

The paper's controller installs aggregation trees once and assumes the
fabric stays healthy. This module adds the recovery half: a
:class:`FailoverManager` runs a heartbeat on the simulation clock, detects
crashed aggregation switches (via the fault injector's authoritative
up/down state — the simulated stand-in for a missed-heartbeat timeout),
releases every resource the dead switch held, re-plans the affected trees
through the surviving fabric (:meth:`DaietController.replan_tree`) and
re-drives the data through the PR 1 reliability layer.

Recovery semantics are epoch-based. A re-planned tree gets a **fresh tree
id**; the reducer's receiver is reset to the new epoch and every mapper's
retained send history (``DaietConfig.retain_for_replay``) is re-stamped
and replayed through a fresh sender channel. Stray packets of the dead
epoch — late switch flushes, in-flight ACKs — are harmless by
construction: their steering entries are gone, so they are plain-forwarded
and then ignored by the tree-id filter at the receiver. With
``reliability`` and ``retain_for_replay`` on, the post-recovery aggregate
is therefore bit-identical to a fault-free run. Without them the manager
*degrades gracefully*: it still releases the dead switch's resources and
logs the event, and the run completes with a bounded, reported aggregate
error instead of hanging or crashing.

The same teardown/re-plan/replay machinery also serves *rebalancing*:
:meth:`FailoverManager.move_tree` re-plans a healthy tree around an
overloaded switch flagged by the hotspot detector
(:mod:`repro.analysis.hotspots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.controller import InstalledJob
from repro.core.errors import ControllerError, RoutingError
from repro.netsim.routing import compute_routes, install_forwarding_rules

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.daiet import DaietSystem
    from repro.core.tree import AggregationTree
    from repro.netsim.faults import FaultInjector


@dataclass(frozen=True)
class FailoverConfig:
    """Tunables of the failover manager."""

    #: Heartbeat period in simulated seconds. Detection latency is at most
    #: one period, so this must sit well below the reliability layer's
    #: give-up horizon (``max_retransmits`` pull intervals) for replay to
    #: win the race against sender give-up.
    heartbeat_interval: float = 2.5e-4
    #: Hard cap on heartbeat ticks, bounding simulation length when the
    #: system can never converge (e.g. reliability off and ENDs lost).
    max_ticks: int = 400


class FailoverManager:
    """Heartbeat-driven crash detection and tree recovery for one system."""

    def __init__(
        self,
        system: "DaietSystem",
        injector: "FaultInjector",
        config: FailoverConfig | None = None,
    ) -> None:
        self.system = system
        self.injector = injector
        self.config = config or FailoverConfig()
        #: (sim time, description) log of every control-plane action taken,
        #: in deterministic order (reports embed it verbatim).
        self.log: list[tuple[float, str]] = []
        self._handled_crashes: set[str] = set()
        self._ticks = 0
        self._started = False

    # ------------------------------------------------------------------ #
    # Heartbeat
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Arm the heartbeat on the simulation scheduler."""
        if self._started:
            return
        self._started = True
        self.system.simulator.scheduler.schedule(
            self.config.heartbeat_interval, self._tick
        )

    def _tick(self) -> None:
        self._ticks += 1
        down = set(self.injector.down_switch_names())
        for name in sorted(down - self._handled_crashes):
            self._handled_crashes.add(name)
            self.handle_switch_crash(name)
        for name in sorted(self._handled_crashes - down):
            self._handled_crashes.discard(name)
            self._handle_switch_restart(name)
        if self._ticks >= self.config.max_ticks or self._quiescent():
            return
        self.system.simulator.scheduler.schedule(
            self.config.heartbeat_interval, self._tick
        )

    def _quiescent(self) -> bool:
        """True once every receiver completed and every channel drained."""
        system = self.system
        for job in system.controller.jobs:
            for reducer in job.trees:
                try:
                    if not system.receiver(reducer).done:
                        return False
                except ControllerError:
                    return False
        for agent in system._agents.values():
            for channel in agent.sender_channels().values():
                if not channel.done:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # Crash handling
    # ------------------------------------------------------------------ #
    def handle_switch_crash(self, switch: str) -> None:
        """Recover every tree traversing ``switch`` and reroute around it."""
        now = self.system.simulator.now
        self.log.append((now, f"detected crash of {switch}"))
        down = self.injector.down_switch_names()
        self._reinstall_routes(exclude=down)
        for job in list(self.system.controller.jobs):
            for reducer in sorted(job.trees):
                if switch in job.trees[reducer].nodes:
                    # Exclude *every* currently-down switch, not just the one
                    # that triggered this recovery: under overlapping crashes
                    # the replacement tree must avoid them all.
                    self.move_tree(job, reducer, exclude=down)

    def _handle_switch_restart(self, switch: str) -> None:
        """Repopulate a restarted (blank) switch's forwarding table."""
        now = self.system.simulator.now
        self.log.append((now, f"detected restart of {switch}"))
        self._reinstall_routes(exclude=self.injector.down_switch_names())

    def _reinstall_routes(self, exclude: Iterable[str]) -> None:
        """Recompute forwarding around ``exclude`` and reinstall everywhere up."""
        system = self.system
        excluded = sorted(set(exclude))
        try:
            routes = compute_routes(system.topology, exclude=excluded)
        except RoutingError as exc:
            self.log.append(
                (system.simulator.now, f"rerouting impossible: {exc}")
            )
            return
        installed = install_forwarding_rules(
            system.topology, routes, skip=excluded, clear_first=True
        )
        system.simulator.routes = routes
        self.log.append(
            (
                system.simulator.now,
                f"reinstalled {installed} routes (excluding "
                f"{','.join(excluded) if excluded else 'nothing'})",
            )
        )

    # ------------------------------------------------------------------ #
    # Re-planning and replay (shared by failover and rebalancing)
    # ------------------------------------------------------------------ #
    def move_tree(
        self, job: InstalledJob, reducer: str, exclude: Iterable[str]
    ) -> "AggregationTree | None":
        """Re-plan one reducer's tree around ``exclude`` and replay into it.

        Returns the replacement tree, or ``None`` when the system cannot
        recover exactly (no route, or replay disabled) — in which case the
        degradation is logged and the old resources stay released.
        """
        system = self.system
        now = system.simulator.now
        old_tree = job.tree_for_reducer(reducer)
        old_id = old_tree.tree_id
        policy = system.tree_policy(old_id)
        excluded = sorted(set(exclude))
        tracker = getattr(system, "error_tracker", None)
        if tracker is not None:
            tracker.record_teardown(old_tree)
        try:
            tree = system.controller.replan_tree(
                job, reducer, exclude=excluded, policy=policy
            )
        except RoutingError as exc:
            self.log.append(
                (now, f"tree {old_id} ({reducer}): replan failed, degraded: {exc}")
            )
            return None
        system.register_tree_policy(tree.tree_id, policy)
        if tracker is not None:
            # The logical aggregate spans the whole epoch lineage: carry the
            # dead epoch's loss ledger over to the replacement tree id.
            tracker.merge_epoch(old_id, tree.tree_id)
        self.log.append(
            (
                now,
                f"tree {old_id} ({reducer}) re-planned as tree {tree.tree_id} "
                f"avoiding {','.join(excluded)}",
            )
        )
        # Rebind the reducer to the new epoch: fresh dedup windows and a
        # receiver that only counts the replacement tree's packets. This
        # happens even in degraded mode — the old epoch is dead either way,
        # and future traffic must land in the replacement tree.
        config = system.config
        receiver = system.receiver(reducer)
        if config.reliability:
            system.agent(reducer).detach_tree(old_id)
        receiver.reset(tree.tree_id, tree.children_count(reducer))
        system.attach_receiver(tree, receiver.receive)
        if policy == "best_effort":
            # A best-effort tree chose to tolerate loss: recovery re-plans
            # the topology but never replays — no replay storms, the run
            # terminates with its deficit reported by the error ledger.
            self.log.append(
                (
                    now,
                    f"tree {tree.tree_id} ({reducer}): no replay "
                    "(policy best_effort), deficit reported",
                )
            )
            return tree
        if not (config.reliability and config.retain_for_replay):
            self.log.append(
                (
                    now,
                    f"tree {tree.tree_id} ({reducer}): no replay "
                    "(reliability/retain_for_replay off), aggregate degraded",
                )
            )
            return tree

        # Replay every mapper's retained history through a fresh channel,
        # re-stamped for the new epoch. The old channel is closed first so
        # no timer of the dead epoch ever fires again.
        replayed = 0
        for mapper in tree.mappers:
            mapper_agent = system.agent(mapper)
            old_channel = mapper_agent.drop_sender(old_id)
            history = old_channel.sent_packets() if old_channel is not None else []
            if not history:
                continue
            channel = mapper_agent.sender(tree.tree_id, policy=policy)
            channel.send(
                [
                    packet.restamped(tree.tree_id, channel.take_seq())
                    for packet in history
                ]
            )
            replayed += len(history)
        if replayed:
            system.agent(reducer).arm(tree.tree_id)
        self.log.append(
            (now, f"tree {tree.tree_id} ({reducer}): replayed {replayed} packets")
        )
        return tree

"""Deterministic fault injection: crashes, link flaps and stragglers.

The paper's evaluation assumes a healthy fabric ("we do not address the
issue of packet losses, which we leave as future work"); PR 1 added loss,
and this module adds the remaining failure axis — *churn*. A
:class:`FaultPlan` is a declarative, fully deterministic schedule of fault
events; a :class:`FaultInjector` arms the plan on a simulator's event
scheduler and enforces it on the data path:

* **switch crash / restart** — a crashed switch stops forwarding and, like
  real ASIC power loss, loses its volatile state: steering and forwarding
  tables are cleared and every in-switch aggregation tree (partial
  registers, spillover, reliability windows) is wiped. A restarted switch
  stays blank until the control plane reconfigures it.
* **host crash / restart** — a crashed host neither sends (its injections
  die on the NIC) nor receives.
* **link down / up / flap** — packets transmitted onto a downed link are
  destroyed at the sender's NIC.
* **straggler slowdown** — a per-link latency multiplier: bandwidth is
  divided and propagation multiplied by ``factor`` for the fault window.
  The simulator reads link attributes live on every transmission, so the
  mutation needs no hook and costs nothing per packet.

The injector enforces the plan as a simulator observer
(:meth:`NetworkSimulator.add_observer`) holding the two veto hooks: the
simulator asks it before every transmission and every delivery, and turns
a veto into a ``fault`` drop. Every packet destroyed by a fault is thus
*counted*, never silently dropped: it lands in ``TrafficStats.fault_drops``
and every other observer is told (the sanitizer files it under ``faulted``,
so ``REPRO_SANITIZE=1`` churn runs still balance exactly; the error-bound
tracker adds its mass to the tree's deficit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.errors import SimulationError
from repro.netsim.devices import Host, SwitchDevice
from repro.netsim.links import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import NetworkSimulator

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "install_faults",
    "HOST_CRASH",
    "HOST_RESTART",
    "LINK_DOWN",
    "LINK_UP",
    "SLOWDOWN_END",
    "SLOWDOWN_START",
    "SWITCH_CRASH",
    "SWITCH_RESTART",
]

#: Fault kinds. Plain strings (not an enum) so plans serialize trivially
#: into the deterministic experiment reports.
SWITCH_CRASH = "switch-crash"
SWITCH_RESTART = "switch-restart"
HOST_CRASH = "host-crash"
HOST_RESTART = "host-restart"
LINK_DOWN = "link-down"
LINK_UP = "link-up"
SLOWDOWN_START = "slowdown-start"
SLOWDOWN_END = "slowdown-end"

_DEVICE_KINDS = (SWITCH_CRASH, SWITCH_RESTART, HOST_CRASH, HOST_RESTART)
_LINK_KINDS = (LINK_DOWN, LINK_UP, SLOWDOWN_START, SLOWDOWN_END)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault. Ordered by ``(time, kind, target)``.

    ``target`` is a device name for device faults and an ``(a, b)`` device
    pair (resolved against the topology at install time) for link faults.
    """

    time: float
    kind: str
    target: str | tuple[str, str]
    #: Latency multiplier, only meaningful for :data:`SLOWDOWN_START`.
    factor: float = 1.0

    def describe(self) -> str:
        """Stable one-line rendering for logs and reports."""
        target = (
            self.target if isinstance(self.target, str) else "<->".join(self.target)
        )
        if self.kind == SLOWDOWN_START:
            return f"t={self.time:.6f} {self.kind} {target} x{self.factor:g}"
        return f"t={self.time:.6f} {self.kind} {target}"


@dataclass
class FaultPlan:
    """A deterministic schedule of fault events.

    Built either explicitly through the fluent ``switch_crash`` /
    ``link_flap`` / ... helpers or randomly-but-seeded through
    :meth:`random_flaps`. The plan is inert data; arming it on a simulator
    is the :class:`FaultInjector`'s job.
    """

    events: list[FaultEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Builders (each returns ``self`` for chaining)
    # ------------------------------------------------------------------ #
    def _add(self, event: FaultEvent) -> "FaultPlan":
        if event.time < 0:
            raise SimulationError(f"fault time must be non-negative (got {event.time})")
        self.events.append(event)
        return self

    def switch_crash(self, time: float, switch: str) -> "FaultPlan":
        """Crash ``switch`` at ``time`` (volatile state is wiped)."""
        return self._add(FaultEvent(time, SWITCH_CRASH, switch))

    def link_down(self, time: float, a: str, b: str) -> "FaultPlan":
        """Take the ``a``-``b`` link down at ``time`` (both directions)."""
        return self._add(FaultEvent(time, LINK_DOWN, (a, b)))

    def link_up(self, time: float, a: str, b: str) -> "FaultPlan":
        """Bring the ``a``-``b`` link back up at ``time``."""
        return self._add(FaultEvent(time, LINK_UP, (a, b)))

    def link_flap(self, time: float, a: str, b: str, duration: float) -> "FaultPlan":
        """Down the ``a``-``b`` link for ``duration`` seconds."""
        if duration <= 0:
            raise SimulationError(f"flap duration must be positive (got {duration})")
        self.link_down(time, a, b)
        return self.link_up(time + duration, a, b)

    def slowdown(
        self, time: float, a: str, b: str, factor: float, duration: float | None = None
    ) -> "FaultPlan":
        """Multiply the ``a``-``b`` link's latency by ``factor``.

        Bandwidth is divided and propagation multiplied by ``factor`` for
        ``duration`` seconds (or for the rest of the run when ``None``).
        """
        if factor <= 1.0:
            raise SimulationError(f"slowdown factor must exceed 1 (got {factor})")
        self._add(FaultEvent(time, SLOWDOWN_START, (a, b), factor=factor))
        if duration is not None:
            if duration <= 0:
                raise SimulationError(
                    f"slowdown duration must be positive (got {duration})"
                )
            self._add(FaultEvent(time + duration, SLOWDOWN_END, (a, b)))
        return self

    @classmethod
    def random_flaps(
        cls,
        links: Iterable[tuple[str, str]],
        *,
        seed: int,
        count: int,
        start: float,
        window: float,
        duration: float,
    ) -> "FaultPlan":
        """A seeded plan of ``count`` flaps across ``links``.

        Flap start times are drawn uniformly from ``[start, start+window)``
        and each flap downs one (seeded-choice) link for ``duration``
        seconds. The same arguments always produce the same plan.
        """
        pool = sorted(links)
        if not pool:
            raise SimulationError("random_flaps needs at least one candidate link")
        rng = random.Random(seed)
        plan = cls()
        for _ in range(count):
            a, b = pool[rng.randrange(len(pool))]
            at = start + rng.random() * window
            plan.link_flap(at, a, b, duration)
        return plan

    def sorted_events(self) -> list[FaultEvent]:
        """The plan's events in deterministic application order."""
        return sorted(self.events)


class FaultInjector:
    """Arms a :class:`FaultPlan` on one simulator and enforces it.

    The injector keeps the authoritative up/down state (``is_down``), a
    deterministic application log (``log``), and a list of ``observers``
    called synchronously after each fault is applied (the failover
    manager's detection hook; heartbeat-driven managers may instead poll
    ``is_down``).
    """

    def __init__(self, sim: "NetworkSimulator", plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.down_devices: set[str] = set()
        self.down_links: set[str] = set()
        #: (sim time, event description) per applied fault, in order.
        self.log: list[tuple[float, str]] = []
        self.observers: list[Callable[[FaultEvent], None]] = []
        #: link name -> (original bandwidth, original propagation), recorded
        #: the first time a slowdown touches the link so SLOWDOWN_END (and
        #: overlapping slowdowns) restore the true baseline.
        self._link_baseline: dict[str, tuple[float, float]] = {}
        self._installed = False
        self._validate_plan()

    def _validate_plan(self) -> None:
        topology = self.sim.topology
        for event in self.plan.events:
            if event.kind in _DEVICE_KINDS:
                if not isinstance(event.target, str):
                    raise SimulationError(
                        f"device fault {event.kind!r} needs a device name target"
                    )
                device = topology.get(event.target)  # raises TopologyError
                if event.kind in (SWITCH_CRASH, SWITCH_RESTART):
                    if not isinstance(device, SwitchDevice):
                        raise SimulationError(
                            f"{event.kind} target {event.target!r} is not a switch"
                        )
                elif not isinstance(device, Host):
                    raise SimulationError(
                        f"{event.kind} target {event.target!r} is not a host"
                    )
            elif event.kind in _LINK_KINDS:
                if isinstance(event.target, str):
                    raise SimulationError(
                        f"link fault {event.kind!r} needs an (a, b) device pair"
                    )
                topology.link_between(*event.target)  # raises TopologyError
            else:
                raise SimulationError(f"unknown fault kind {event.kind!r}")

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> "FaultInjector":
        """Attach the vetoes to the data path and schedule every planned fault."""
        if self._installed:
            return self
        sim = self.sim
        sim.add_observer(self)
        for event in self.plan.sorted_events():
            sim.scheduler.push_at(event.time, self._apply, (event,))
        sim.fault_injector = self
        self._installed = True
        return self

    def veto_transmit(self, from_device: str, link: Link | None) -> str | None:
        """Where a transmission from ``from_device`` onto ``link`` dies.

        The crashed sender or the downed link, else ``None``: the healthy
        path costs one set probe and one emptiness test per hop. It is the
        only fault gate, so it is not a registered fast path; its tests
        (``tests/netsim/test_fault_churn.py``) hold that a run with an
        *empty* plan is byte-identical to an uninstalled run, and that every
        vetoed packet is conserved in ``fault_drops`` / the sanitizer's
        ``faulted`` bucket.
        """
        if from_device in self.down_devices:
            return from_device
        if self.down_links and link is not None and link.name in self.down_links:
            return link.name
        return None

    # ------------------------------------------------------------------ #
    # Fault application
    # ------------------------------------------------------------------ #
    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == SWITCH_CRASH:
            self.down_devices.add(event.target)
            self._wipe_switch(self.sim.topology.get(event.target))
        elif kind == HOST_CRASH:
            self.down_devices.add(event.target)
        elif kind in (SWITCH_RESTART, HOST_RESTART):
            self.down_devices.discard(event.target)
        elif kind == LINK_DOWN:
            self.down_links.add(self._link(event).name)
        elif kind == LINK_UP:
            self.down_links.discard(self._link(event).name)
        elif kind == SLOWDOWN_START:
            link = self._link(event)
            baseline = self._link_baseline.setdefault(
                link.name, (link.bandwidth_bps, link.propagation_s)
            )
            link.bandwidth_bps = baseline[0] / event.factor
            link.propagation_s = baseline[1] * event.factor
        elif kind == SLOWDOWN_END:
            link = self._link(event)
            baseline = self._link_baseline.get(link.name)
            if baseline is not None:
                link.bandwidth_bps, link.propagation_s = baseline
        self.log.append((self.sim.now, event.describe()))
        for observer in self.observers:
            observer(event)

    def _link(self, event: FaultEvent) -> Any:
        assert isinstance(event.target, tuple)
        return self.sim.topology.link_between(*event.target)

    def _wipe_switch(self, device: SwitchDevice) -> None:
        """Volatile-state loss on crash: tables and extern trees."""
        self.sim.notify_wipe(device)
        engine = device.switch.externs.get("daiet")
        if engine is not None:
            engine._trees.clear()
        device.daiet_table.clear()
        device.forwarding_table.clear()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def is_down(self, name: str) -> bool:
        """True while device ``name`` is crashed."""
        return name in self.down_devices

    #: The delivery veto: a packet in flight towards a device when it
    #: crashed (the sender-side veto cannot see those) dies on arrival.
    veto_deliver = is_down

    def down_switch_names(self) -> list[str]:
        """Sorted names of currently crashed switches."""
        return sorted(
            name
            for name in self.down_devices
            if isinstance(self.sim.topology.get(name), SwitchDevice)
        )


def install_faults(sim: "NetworkSimulator", plan: FaultPlan) -> FaultInjector:
    """Create and install a :class:`FaultInjector` for ``plan`` on ``sim``."""
    return FaultInjector(sim, plan).install()

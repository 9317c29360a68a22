"""Action primitives available to match-action tables.

A programmable switch supports a small, fixed set of primitive actions (set a
header field, copy metadata, add, hash, push to a register). Compound actions
are sequences of primitives. Each primitive charges the per-packet operation
budget, so pipelines that do "too much work" per packet are rejected, matching
the architectural constraint discussed in Section 2 of the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import PipelineError, ResourceExhaustedError
from repro.dataplane.resources import PacketOpCounter


def ecmp_path_index(seed: int, src: str, dst: Any, paths: int) -> int:
    """Which of ``paths`` equal-cost shortest paths ``src`` -> ``dst`` takes.

    The fabric's one ECMP hash: the index into the lexicographically sorted
    path set is ``sha256(f"{seed}:{src}->{dst}")`` modulo the path count.
    Route computation (and through it the aggregation-tree builder) and the
    ECMP group action both call it, so a tree's path and a forwarded
    packet's path cannot drift apart.
    """
    if paths == 1:
        return 0
    digest = hashlib.sha256(f"{seed}:{src}->{dst}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % paths


class PacketContext:
    """Mutable state carried by a packet through the pipeline.

    A plain ``__slots__`` class (not a dataclass): one context is created per
    packet per hop, so construction cost matters.

    Attributes
    ----------
    packet:
        The packet object being processed (opaque to the pipeline).
    metadata:
        Per-packet metadata fields, equivalent to P4 ``metadata`` structs.
        Standard fields used by the forwarding pipeline:

        * ``ingress_port`` — port the packet arrived on,
        * ``egress_port`` — port chosen by the forwarding tables,
        * ``drop`` — set to ``True`` to drop the packet,
        * ``consumed`` — set to ``True`` when an extern (e.g. the DAIET
          aggregator) absorbed the packet and no forwarding should occur.
    ops:
        Per-packet operation counter enforcing the line-rate budget.
    emitted:
        Packets generated by the pipeline itself (e.g. flushed aggregates),
        as ``(egress_port, packet)`` tuples.
    """

    __slots__ = ("packet", "metadata", "ops", "emitted")

    def __init__(
        self,
        packet: Any,
        metadata: dict[str, Any] | None = None,
        ops: PacketOpCounter | None = None,
        emitted: list[tuple[int, Any]] | None = None,
    ) -> None:
        self.packet = packet
        self.metadata = {} if metadata is None else metadata
        self.ops = ops
        self.emitted = [] if emitted is None else emitted

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PacketContext(packet={self.packet!r}, metadata={self.metadata!r}, "
            f"ops={self.ops!r}, emitted={self.emitted!r})"
        )

    def charge(self, ops: int = 1) -> None:
        """Charge the per-packet operation budget, if one is attached.

        Inlines ``PacketOpCounter.charge`` — this runs several times per
        packet per hop, so the extra call frame is measurable.
        """
        counter = self.ops
        if counter is None:
            return
        if ops < 0:
            counter.charge(ops)  # delegate the error path
            return
        used = counter.used + ops
        counter.used = used
        if used > counter.limit:
            raise ResourceExhaustedError(
                f"per-packet operation budget exceeded ({used} > {counter.limit})"
            )

    def emit(self, egress_port: int, packet: Any) -> None:
        """Queue a switch-generated packet for transmission on ``egress_port``."""
        self.emitted.append((egress_port, packet))


class Action:
    """Base class for actions executed when a table entry matches."""

    #: Operation cost charged against the per-packet budget.
    cost: int = 1

    def apply(self, ctx: PacketContext) -> None:
        """Execute the action against the packet context."""
        raise NotImplementedError

    def __call__(self, ctx: PacketContext) -> None:
        ctx.charge(self.cost)
        self.apply(ctx)


@dataclass
class NoAction(Action):
    """Do nothing (the P4 ``NoAction`` primitive)."""

    cost: int = 0

    def apply(self, ctx: PacketContext) -> None:  # noqa: D102 - trivially empty
        return


@dataclass
class DropAction(Action):
    """Mark the packet to be dropped."""

    cost: int = 1

    def apply(self, ctx: PacketContext) -> None:
        ctx.metadata["drop"] = True


@dataclass
class SetMetadataAction(Action):
    """Set a metadata field to a constant value."""

    key: str = ""
    value: Any = None
    cost: int = 1

    def apply(self, ctx: PacketContext) -> None:
        if not self.key:
            raise PipelineError("SetMetadataAction requires a metadata key")
        ctx.metadata[self.key] = self.value


@dataclass(frozen=True)
class ForwardAction(Action):
    """Set the egress port of the packet (the basic L2/L3 forwarding action).

    Immutable: a bulk install binds one instance to every rule of the batch
    that forwards out of the same port.
    """

    egress_port: int = 0
    cost: int = 1

    def apply(self, ctx: PacketContext) -> None:
        ctx.metadata["egress_port"] = self.egress_port


@dataclass(frozen=True)
class EcmpAction(Action):
    """An ECMP group: one of several next hops, chosen per destination.

    ``ports[i]`` leads to ``paths[i]`` of ``switch``'s equal-cost shortest
    paths towards the entry's destinations, in lexicographic path order. A
    packet for ``dst`` takes path :func:`ecmp_path_index` ``(seed, switch,
    dst, sum(paths))`` and so leaves by the port whose range of paths holds
    that index. Immutable, like :class:`ForwardAction`: a bulk install
    binds one instance to every entry with the same members.
    """

    ports: tuple[int, ...] = ()
    paths: tuple[int, ...] = ()
    seed: int = 0
    switch: str = ""
    cost: int = 1
    _total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ports, paths = self.ports, self.paths
        if not ports or len(ports) != len(paths) or min(ports) < 0 or min(paths) < 1:
            raise PipelineError(
                f"an ECMP group needs one path count >= 1 per port >= 0: {ports} / {paths}"
            )
        object.__setattr__(self, "_total", sum(paths))

    def select(self, dst: Any) -> int:
        """The member port traffic for ``dst`` leaves by."""
        index = ecmp_path_index(self.seed, self.switch, dst, self._total)
        for port, paths in zip(self.ports, self.paths):
            if index < paths:
                return port
            index -= paths
        raise PipelineError("ECMP path index outside the group")  # pragma: no cover

    def apply(self, ctx: PacketContext) -> None:
        ctx.metadata["egress_port"] = self.select(ctx.metadata.get("dst"))


@dataclass
class CallableAction(Action):
    """Adapter turning an arbitrary callable into an action.

    Used to hook externs (such as the DAIET aggregation engine) into the
    pipeline. The callable receives the :class:`PacketContext`.
    """

    func: Callable[[PacketContext], None] = None  # type: ignore[assignment]
    name: str = "callable"
    cost: int = 1

    def apply(self, ctx: PacketContext) -> None:
        if self.func is None:
            raise PipelineError(f"CallableAction {self.name!r} has no function bound")
        self.func(ctx)

    def __call__(self, ctx: PacketContext) -> None:
        # Specialized to skip the generic charge->apply double dispatch:
        # extern actions (e.g. the DAIET aggregator) run once per packet.
        ctx.charge(self.cost)
        func = self.func
        if func is None:
            raise PipelineError(f"CallableAction {self.name!r} has no function bound")
        func(ctx)


@dataclass
class ActionSequence(Action):
    """Execute a list of actions in order (a P4 compound action)."""

    actions: tuple[Action, ...] = ()
    cost: int = 0

    def apply(self, ctx: PacketContext) -> None:
        for action in self.actions:
            action(ctx)

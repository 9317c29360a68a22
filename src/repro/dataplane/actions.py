"""What the switch program's table entries bind.

The program (see :mod:`repro.dataplane.switch`) declares three actions: a
``daiet_steer`` entry hands its packet to an :class:`Extern`, the switch's
aggregation engine; an ``l3_forward`` entry sends it out of one port
(:class:`ForwardAction`) or out of one member of an ECMP group
(:class:`EcmpAction`). What each costs against the per-packet operation
budget is the switch's op model, not a property of the action.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import TableError


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


class Extern:
    """A stateful extern a table entry hands its packet to (a P4 ``extern``).

    The DAIET aggregation engine is the one the program declares:
    ``daiet_steer``'s ``aggregate`` entries carry the engine itself.
    """

    __slots__ = ()


@dataclass(frozen=True)
class ForwardAction:
    """Send the packet out of ``egress_port`` (the basic L2/L3 forward).

    Immutable: a bulk install binds one instance to every rule of the batch
    that forwards out of the same port.
    """

    egress_port: int = 0

    def __post_init__(self) -> None:
        if self.egress_port < 0:
            raise TableError(f"a forward needs an egress port >= 0, not {self.egress_port}")


@dataclass(frozen=True)
class EcmpAction:
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
    _total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ports, paths = self.ports, self.paths
        if not ports or len(ports) != len(paths) or min(ports) < 0 or min(paths) < 1:
            raise TableError(
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
        raise TableError("ECMP path index outside the group")  # pragma: no cover

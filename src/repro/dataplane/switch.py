"""The switch program: steer a tree's packets, then forward by destination.

:class:`ProgrammableSwitch` is the functional model of one Tofino/bmv2-class
device running the one P4 program DAIET needs. Its two tables are declared
when it is built, and from then on the control plane only pushes rules:

* ``daiet_steer`` — exact match on ``tree_id``; an ``aggregate`` entry hands
  the packet to the switch's aggregation engine (an
  :class:`~repro.dataplane.actions.Extern` the controller binds);
* ``l3_forward`` — exact match on ``dst``, then the rack prefix the address
  plan names; a ``forward`` entry sends the packet out of one port, an
  ``ecmp`` entry out of one member of its group.

Steering is :class:`repro.netsim.devices.SwitchDevice`'s: the device hands a
steered packet to the engine. :meth:`ProgrammableSwitch.receive` is the
forwarding stage every other packet takes.

The per-packet op model (the paper's "few operations per packet"): parsing
into metadata 1, each table lookup 1, the bound action 1 — plus, for a packet
the engine takes, one per pair (at least one). A DATA packet costs
``3 + max(1, npairs)``, a steered ACK 4, a forwarded packet 4 (3 when
``l3_forward`` misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from repro.checks.registry import fastpath
from repro.core.errors import PacketFormatError, PipelineError, ResourceExhaustedError, TableError
from repro.dataplane.actions import EcmpAction, Extern, ForwardAction
from repro.dataplane.parser import HeaderParser
from repro.dataplane.resources import ResourceLedger, SwitchResources
from repro.dataplane.tables import FlowRule, MatchActionTable

#: Name of the DAIET steering table (matched on tree id).
DAIET_TABLE = "daiet_steer"

#: Name of the destination-based forwarding table.
FORWARDING_TABLE = "l3_forward"

#: The steering table's one action: hand the packet to the aggregation engine.
AGGREGATE_ACTION = "aggregate"


@dataclass
class SwitchCounters:
    """Aggregate per-switch counters used by the evaluation harness."""

    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    packets_generated: int = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "packets_generated": self.packets_generated,
        }


def over_op_budget(ops: int, limit: int) -> ResourceExhaustedError:
    """The error a packet costing ``ops`` operations over ``limit`` raises."""
    return ResourceExhaustedError(f"per-packet operation budget exceeded ({ops} > {limit})")


class ProgrammableSwitch:
    """Functional model of a programmable switch running the DAIET program.

    Parameters
    ----------
    name:
        Device name (unique within a topology).
    num_ports:
        Number of front-panel ports.
    resources:
        The target resource budget; defaults to a Tofino-like profile.
    """

    def __init__(
        self,
        name: str,
        num_ports: int = 64,
        resources: SwitchResources | None = None,
    ) -> None:
        if num_ports <= 0:
            raise PipelineError("a switch needs at least one port")
        self.name = name
        self.num_ports = num_ports
        self.resources = resources or SwitchResources()
        self.ledger = ResourceLedger(budget=self.resources)
        self.parser = HeaderParser(self.resources)
        self.counters = SwitchCounters()
        self.externs: dict[str, Any] = {}
        steer = MatchActionTable(
            DAIET_TABLE, match_fields=("tree_id",), actions={AGGREGATE_ACTION: Extern}
        )
        forward = MatchActionTable(
            FORWARDING_TABLE,
            match_fields=("dst",),
            actions={"forward": ForwardAction, "ecmp": EcmpAction},
        )
        forward.register_action("forward", ForwardAction)
        forward.register_action("ecmp", EcmpAction)
        #: The program's tables, by name; the layout never changes.
        self.tables = MappingProxyType({DAIET_TABLE: steer, FORWARDING_TABLE: forward})
        self._steer = steer
        self._forward = forward
        self._op_budget = self.resources.max_ops_per_packet
        self._parse_budget = self.resources.max_parse_bytes

    # ------------------------------------------------------------------ #
    # Control-plane interface
    # ------------------------------------------------------------------ #
    def install_rule(self, rule: FlowRule) -> None:
        """Install a flow rule into the named table."""
        self._table(rule.table).install(rule)

    def install_rules(self, rules: list[FlowRule]) -> int:
        """Install a batch of rules; returns the number installed.

        Each table receives its rules as one all-or-nothing batch (see
        :meth:`MatchActionTable.install_batch`); every table name is resolved
        before the first table is touched.
        """
        by_table: dict[str, list[FlowRule]] = {}
        for rule in rules:
            by_table.setdefault(rule.table, []).append(rule)
        batches = [(self._table(name), batch) for name, batch in by_table.items()]
        for table, batch in batches:
            table.install_batch(batch)
        return len(rules)

    def register_extern(self, name: str, extern: Any) -> None:
        """Attach a stateful extern object (e.g. a DAIET aggregation engine)."""
        self.externs[name] = extern

    def _table(self, table_name: str) -> MatchActionTable:
        table = self.tables.get(table_name)
        if table is None:
            raise TableError(
                f"switch {self.name!r} has no table named {table_name!r}; "
                f"available: {sorted(self.tables)}"
            )
        return table

    # ------------------------------------------------------------------ #
    # Data-plane interface
    # ------------------------------------------------------------------ #
    @fastpath("switch-forwarding", oracle="tests/netsim/test_forwarding_fastpath.py")
    def receive(self, packet: Any, ingress_port: int, nbytes: int) -> list[tuple[int, Any]]:
        """Forward one packet no steering entry took; return its transmissions.

        ``nbytes`` is the packet's wire size. The packet misses
        ``daiet_steer``; the ``l3_forward`` lookup is the table's: ``dst``
        exactly, then the rack prefix the address plan names. A hit leaves by
        the entry's port, or by the ECMP group member ``dst`` hashes to; a
        miss drops the packet, as real switches do.

        Raises
        ------
        PacketFormatError
            If the packet has no ``dst`` or no declared parse depth.
        ResourceExhaustedError
            If the packet is deeper than the parse budget, or its op charge
            (4 on a hit, 3 on a miss) is over ``max_ops_per_packet``.
        PipelineError
            If ``ingress_port`` is not one of the switch's ports.
        """
        if not 0 <= ingress_port < self.num_ports:
            raise PipelineError(
                f"ingress port {ingress_port} out of range for switch {self.name!r}"
            )
        try:
            dst = packet.dst
            parse_depth = packet.parse_depth_bytes
        except AttributeError:
            raise PacketFormatError(
                f"switch {self.name!r} cannot parse an object of type "
                f"{type(packet).__name__}: it has no dst or parse depth"
            ) from None
        forward = self._forward
        try:
            entry = forward._exact_index.get((("dst", dst),))
            if entry is None and forward.address_plan is not None:
                entry = forward._aggregate_entry(dst)
        except TypeError:  # unhashable destination: a miss
            entry = None
        counters = self.counters
        counters.packets_in += 1
        counters.bytes_in += nbytes
        parsed = parse_depth()
        if parsed <= self._parse_budget:
            self.parser.bytes_parsed += parsed
        else:
            self.parser.charge(packet)  # raises the parse-depth error
        ops = 3 if entry is None else 4
        if ops > self._op_budget:
            raise over_op_budget(ops, self._op_budget)
        self._steer.miss_count += 1
        if entry is None:
            forward.miss_count += 1
            counters.packets_dropped += 1
            return []
        action = entry.action
        egress = action.select(dst) if type(action) is EcmpAction else action.egress_port
        forward.hit_count += 1
        counters.packets_out += 1
        counters.bytes_out += nbytes
        return [(egress, packet)]

"""A programmable switch: parser + pipeline + registers + ports.

:class:`ProgrammableSwitch` is the functional model of one Tofino/bmv2-class
device. It is deliberately independent of the network simulator: it consumes a
packet on an ingress port and returns the list of packets to transmit, so it
can be unit-tested in isolation and wrapped by
:class:`repro.netsim.devices.SwitchDevice` for end-to-end runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.errors import PacketFormatError, PipelineError, TableError
from repro.dataplane.parser import HeaderParser, ParseResult
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.resources import ResourceLedger, SwitchResources
from repro.dataplane.tables import FlowRule, MatchActionTable

#: Egress port value meaning "broadcast to every port except the ingress one".
BROADCAST_PORT = -1


@dataclass
class SwitchCounters:
    """Aggregate per-switch counters used by the evaluation harness."""

    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    packets_generated: int = 0
    #: Packets whose on-the-wire size could not be determined; every such
    #: packet is a ledger warning, because the byte counters undercount it.
    unsized_packets: int = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "packets_generated": self.packets_generated,
            "unsized_packets": self.unsized_packets,
        }


class ProgrammableSwitch:
    """Functional model of a programmable match-action switch.

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
        self.pipeline = Pipeline(self.resources, name=f"{name}.ingress")
        self.counters = SwitchCounters()
        self.externs: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Control-plane interface
    # ------------------------------------------------------------------ #
    def install_rule(self, rule: FlowRule) -> None:
        """Install a flow rule into the named table."""
        table = self._table(rule.table)
        table.install(rule)

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

    def remove_rule(self, table_name: str, match: dict[str, Any]) -> bool:
        """Remove a rule from a table by its match key."""
        return self._table(table_name).remove(match)

    def register_extern(self, name: str, extern: Any) -> None:
        """Attach a stateful extern object (e.g. a DAIET aggregation engine)."""
        self.externs[name] = extern

    def get_extern(self, name: str) -> Any:
        """Return a previously registered extern."""
        if name not in self.externs:
            raise PipelineError(f"switch {self.name!r} has no extern named {name!r}")
        return self.externs[name]

    def _table(self, table_name: str) -> MatchActionTable:
        tables = self.pipeline.tables()
        if table_name not in tables:
            raise TableError(
                f"switch {self.name!r} has no table named {table_name!r}; "
                f"available: {sorted(tables)}"
            )
        return tables[table_name]

    # ------------------------------------------------------------------ #
    # Data-plane interface
    # ------------------------------------------------------------------ #
    def receive(
        self, packet: Any, ingress_port: int, nbytes: int | None = None
    ) -> list[tuple[int, Any]]:
        """Process one packet; return ``(egress_port, packet)`` transmissions.

        The returned list contains zero entries when the packet was dropped or
        fully absorbed by an extern, one entry for plain forwarding, and
        possibly several entries when the pipeline emitted switch-generated
        packets (e.g. DAIET flushes) or the packet was broadcast.

        ``nbytes`` is the packet's wire size when the caller (the simulator
        fast path) already knows it; sizing is re-derived otherwise.
        """
        if not 0 <= ingress_port < self.num_ports:
            raise PipelineError(
                f"ingress port {ingress_port} out of range for switch {self.name!r}"
            )
        counters = self.counters
        counters.packets_in += 1
        counters.bytes_in += (
            nbytes if nbytes is not None else _packet_bytes(packet, counters)
        )

        # Fast path: the parser only enforces the parse-depth budget here;
        # full header extraction (ParseResult) stays available via
        # :meth:`parse_only` for tests and diagnostics.
        parsed_bytes = self.parser.charge(packet)
        ctx = self.pipeline.process(packet, ingress_port)
        metadata = ctx.metadata
        metadata["parsed_bytes"] = parsed_bytes

        out: list[tuple[int, Any]] = []
        if not metadata.get("drop") and not metadata.get("consumed"):
            egress = metadata.get("egress_port")
            if egress is None:
                # No forwarding decision: drop, as real switches do on a miss.
                counters.packets_dropped += 1
            elif egress == BROADCAST_PORT:
                for port in range(self.num_ports):
                    if port != ingress_port:
                        out.append((port, packet))
            else:
                out.append((int(egress), packet))
        elif metadata.get("drop"):
            counters.packets_dropped += 1

        emitted = ctx.emitted
        if emitted:
            out.extend(emitted)
            counters.packets_generated += len(emitted)

        if out:
            counters.packets_out += len(out)
            if len(out) == 1 and out[0][1] is packet and nbytes is not None:
                counters.bytes_out += nbytes
            else:
                for _, pkt in out:
                    counters.bytes_out += _packet_bytes(pkt, counters)
        return out

    def parse_only(self, packet: Any) -> ParseResult:
        """Run only the parser (used by tests and diagnostics)."""
        return self.parser.parse(packet)


def _packet_bytes(packet: Any, counters: SwitchCounters | None = None) -> int:
    """Best-effort serialized size of a packet object.

    Prefers the packet's own ``wire_bytes()``/``length``; packets exposing
    only ``encode()`` are sized by serializing them. A packet with none of
    these would silently zero the ``bytes_in``/``bytes_out`` ledgers, so it is
    recorded as an ``unsized_packets`` warning instead of being ignored.
    """
    size_fn = getattr(packet, "wire_bytes", None)
    if callable(size_fn):
        return int(size_fn())
    length = getattr(packet, "length", None)
    if isinstance(length, int):
        return length
    encode = getattr(packet, "encode", None)
    if callable(encode):
        # Only the errors a malformed packet's serializer actually raises:
        # anything else (assertion failures, sanitizer errors, attribute
        # bugs) must propagate rather than be silently absorbed as "unsized".
        try:
            return len(encode())
        except (TypeError, ValueError, PacketFormatError):
            pass
    if counters is not None:
        counters.unsized_packets += 1
    return 0

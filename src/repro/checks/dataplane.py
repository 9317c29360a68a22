"""Dataplane configuration checker.

Validates *constructed* switch programs — a :class:`~repro.netsim.simulator.
NetworkSimulator` with its switches, tables and aggregation engines wired
up — against the invariants that, when violated, produce silent packet
loss or resource corruption long before any assertion fires:

* steering-table (``daiet_steer``) entries must reference a configured
  aggregation tree whose egress and child ports are live (cabled) ports;
* forwarding entries and ECMP group members must emit on live ports, and
  no per-host entry may overlap its rack's aggregate entry;
* tables must have no duplicate canonical keys;
* the parser byte budget must cover the largest DAIET packet the
  configured job can produce (``parse_depth_bytes``);
* register-file capacities must agree with the
  :mod:`repro.dataplane.resources` ledger and the job config.

The checker is read-only; it never mutates the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.checks.findings import Finding
from repro.dataplane.actions import EcmpAction, ForwardAction
from repro.dataplane.tables import MatchActionTable, _canonical_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import NetworkSimulator


def check_table(table: MatchActionTable, *, path: str) -> list[Finding]:
    """Duplicate-key check on one match-action table."""
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for entry in table._entries:
        key = _canonical_key(entry.match)
        if key is None:
            continue
        if key in seen:
            findings.append(
                Finding(
                    rule="table-duplicate-key",
                    path=path,
                    line=0,
                    message=f"table {table.name!r} holds duplicate entries for "
                    f"match {entry.match}",
                )
            )
        else:
            seen.add(key)
    return findings


def _decision(action: Any, dst: Any) -> Any:
    """The egress port ``action`` picks for ``dst`` (the action, if not a forward)."""
    if isinstance(action, ForwardAction):
        return action.egress_port
    if isinstance(action, EcmpAction):
        return action.select(dst)
    return action


def _check_forwarding_overlap(table: MatchActionTable, *, path: str) -> list[Finding]:
    """Per-host entries that an aggregate entry of the same table also covers.

    The address plan maps a host to its rack's prefix. A table holding an
    entry for the host *and* one for its prefix decides the host's traffic
    twice: redundantly when both entries pick the same egress, in conflict
    otherwise (the overlap classes of conflict-aware ACL checking). Hosts
    the plan does not map (multi-homed ones) keep per-host entries by
    design and are exempt.
    """
    plan = table.address_plan
    if not plan:
        return []
    field = table.match_fields[0]
    findings: list[Finding] = []
    for entry in table._entries:
        value = entry.match.get(field)
        try:
            covering = plan.get(value)
        except TypeError:
            continue
        aggregate = None if covering is None else table.lookup({field: covering})
        if aggregate is None:
            continue
        mine, theirs = _decision(entry.action, value), _decision(aggregate.action, value)
        verdict = (
            "decides the same way (redundant)"
            if mine == theirs
            else f"decides {mine!r} where the aggregate decides {theirs!r} (conflict)"
        )
        findings.append(
            Finding(
                rule="forwarding-overlap",
                path=path,
                line=0,
                message=f"table {table.name!r}: the entry for {value!r} overlaps "
                f"the aggregate entry for {covering!r} and {verdict}",
            )
        )
    return findings


def _check_ports(
    ports: Iterable[int],
    *,
    what: str,
    num_ports: int,
    live_ports: set[int] | None,
    path: str,
) -> list[Finding]:
    findings: list[Finding] = []
    for port in ports:
        if not 0 <= port < num_ports:
            findings.append(
                Finding(
                    rule="dead-egress-port",
                    path=path,
                    line=0,
                    message=f"{what} references port {port}, outside the "
                    f"switch's 0..{num_ports - 1} range",
                )
            )
        elif live_ports is not None and port not in live_ports:
            findings.append(
                Finding(
                    rule="dead-egress-port",
                    path=path,
                    line=0,
                    message=f"{what} references port {port}, which has no "
                    "link attached",
                )
            )
    return findings


def check_switch(
    device: Any, *, live_ports: set[int] | None = None, path: str | None = None
) -> list[Finding]:
    """Validate one :class:`SwitchDevice`'s tables, trees and resources."""
    switch = device.switch
    if path is None:
        path = f"<switch {switch.name}>"
    findings: list[Finding] = []
    tables = switch.tables
    for table in tables.values():
        findings += check_table(table, path=path)

    engine = switch.externs.get("daiet")
    trees = dict(engine.trees()) if engine is not None else {}

    # Steering entries must point at configured trees on live ports.
    steer = tables.get("daiet_steer")
    if steer is not None:
        for entry in steer._entries:
            tree_id = entry.match.get("tree_id")
            state = trees.get(tree_id)
            if state is None:
                findings.append(
                    Finding(
                        rule="steering-unconfigured-tree",
                        path=path,
                        line=0,
                        message=f"steering entry for tree {tree_id!r} has no "
                        "configured aggregation tree on this switch",
                    )
                )
                continue
            findings += _check_ports(
                [state.egress_port],
                what=f"tree {tree_id} egress",
                num_ports=switch.num_ports,
                live_ports=live_ports,
                path=path,
            )
            findings += _check_ports(
                sorted(state.child_ports.values()),
                what=f"tree {tree_id} child port set",
                num_ports=switch.num_ports,
                live_ports=live_ports,
                path=path,
            )

    # Trees configured on the engine but never steered are dead state.
    if steer is not None:
        steered = {e.match.get("tree_id") for e in steer._entries}
        for tree_id in sorted(set(trees) - steered):
            findings.append(
                Finding(
                    rule="steering-missing-entry",
                    path=path,
                    line=0,
                    message=f"aggregation tree {tree_id} is configured but has "
                    "no steering-table entry; its packets will bypass "
                    "aggregation",
                )
            )

    # Forwarding actions, every ECMP group member included, must emit on
    # live ports.
    for table in tables.values():
        actions = [entry.action for entry in table._entries]
        # Entries share group instances: check each distinct group once.
        groups = dict.fromkeys(a for a in actions if isinstance(a, EcmpAction))
        for kind, ports in (
            ("forward entry", [a.egress_port for a in actions if isinstance(a, ForwardAction)]),
            ("ECMP group member", [port for group in groups for port in group.ports]),
        ):
            findings += _check_ports(
                ports,
                what=f"table {table.name!r} {kind}",
                num_ports=switch.num_ports,
                live_ports=live_ports,
                path=path,
            )
        findings += _check_forwarding_overlap(table, path=path)

    # Per-tree register/parser/ledger consistency.
    for tree_id in sorted(trees):
        state = trees[tree_id]
        config = state.config
        findings += _check_tree_resources(switch, tree_id, state, config, path)
    return findings


def _check_tree_resources(
    switch: Any, tree_id: int, state: Any, config: Any, path: str
) -> list[Finding]:
    findings: list[Finding] = []
    slots = config.register_slots
    if state.key_register.shape != (slots,) or state.value_register.shape != (slots,):
        findings.append(
            Finding(
                rule="register-capacity-mismatch",
                path=path,
                line=0,
                message=f"tree {tree_id} registers hold "
                f"{state.key_register.size}/{state.value_register.size} cells "
                f"but the config declares {slots} slots",
            )
        )
    if state.index_stack.capacity != slots:
        findings.append(
            Finding(
                rule="register-capacity-mismatch",
                path=path,
                line=0,
                message=f"tree {tree_id} index stack capacity "
                f"{state.index_stack.capacity} != register slots {slots}",
            )
        )

    # Parser budget must cover the largest packet this job can emit.
    max_depth = _max_parse_depth(config)
    budget = switch.resources.max_parse_bytes
    if max_depth > budget:
        findings.append(
            Finding(
                rule="parser-budget-exceeded",
                path=path,
                line=0,
                message=f"tree {tree_id} max packet parse depth {max_depth}B "
                f"exceeds the parser budget {budget}B; full-size DAIET "
                "packets would be dropped",
            )
        )

    # The controller's SRAM reservation must match the config's footprint.
    owner = f"tree{tree_id}"
    allocations = switch.ledger.allocations()
    expected = config.sram_bytes()
    actual = allocations.get(owner)
    if actual is None:
        findings.append(
            Finding(
                rule="sram-ledger-mismatch",
                path=path,
                line=0,
                message=f"tree {tree_id} has no SRAM allocation in the ledger "
                f"(expected {expected}B under owner {owner!r})",
            )
        )
    elif actual != expected:
        findings.append(
            Finding(
                rule="sram-ledger-mismatch",
                path=path,
                line=0,
                message=f"tree {tree_id} SRAM allocation {actual}B != the "
                f"config footprint {expected}B",
            )
        )
    return findings


def _max_parse_depth(config: Any) -> int:
    """Parse depth of the largest DAIET data packet the config allows."""
    from repro.core.packet import VALUE_LIMIT, DaietPacket

    pairs = tuple(
        ("k" * config.key_width, VALUE_LIMIT - 1) for _ in range(config.pairs_per_packet)
    )
    packet = DaietPacket(
        tree_id=1,
        src="probe-src",
        dst="probe-dst",
        pairs=pairs,
        config=config,
        seq=0 if config.reliability else None,
    )
    return packet.parse_depth_bytes()


def check_simulator(sim: "NetworkSimulator", *, label: str = "<sim>") -> list[Finding]:
    """Run every dataplane check on each switch of a built simulator."""
    findings: list[Finding] = []
    for device in sim.topology.switches():
        live = set(sim._port_info.get(device.name, {}))
        findings += check_switch(
            device, live_ports=live, path=f"{label}:{device.name}"
        )
    return findings

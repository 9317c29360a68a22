"""Dataplane config checker: clean pipelines pass, seeded faults are caught."""

from __future__ import annotations

import pytest

from repro.checks.dataplane import check_simulator, check_switch
from repro.core.config import DaietConfig
from repro.core.daiet import DaietSystem
from repro.dataplane.actions import EcmpAction, ForwardAction
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import Topology, leaf_spine


def build_system(**config_kwargs) -> DaietSystem:
    config = DaietConfig(register_slots=256, pairs_per_packet=4, **config_kwargs)
    system = DaietSystem.single_rack(4, config=config)
    system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
    return system


@pytest.fixture
def system() -> DaietSystem:
    return build_system()


class TestCleanPipelines:
    def test_installed_job_has_no_findings(self, system):
        assert check_simulator(system.simulator) == []

    def test_reliable_job_has_no_findings(self):
        reliable = build_system(reliability=True)
        assert check_simulator(reliable.simulator) == []


class TestSteeringChecks:
    def test_dead_egress_port_is_flagged(self, system):
        engine = system.engine("tor")
        tree = engine.tree(next(iter(engine._trees)))
        tree.egress_port = 63  # within range on a 64-port switch, but uncabled
        findings = check_simulator(system.simulator)
        assert any(f.rule == "dead-egress-port" for f in findings)
        assert any("no link attached" in f.message for f in findings)

    def test_out_of_range_child_port_is_flagged(self, system):
        engine = system.engine("tor")
        tree = engine.tree(next(iter(engine._trees)))
        tree.child_ports["h0"] = 200
        findings = check_simulator(system.simulator)
        assert any(
            f.rule == "dead-egress-port" and "0..63 range" in f.message
            for f in findings
        )

    def test_unconfigured_tree_is_flagged(self, system):
        engine = system.engine("tor")
        tree_id = next(iter(engine._trees))
        del engine._trees[tree_id]
        findings = check_simulator(system.simulator)
        assert any(f.rule == "steering-unconfigured-tree" for f in findings)

    def test_unsteered_tree_is_flagged(self, system):
        device = system.simulator.switch("tor")
        tree_id = next(iter(system.engine("tor")._trees))
        device.daiet_table.remove({"tree_id": tree_id})
        findings = check_simulator(system.simulator)
        assert any(f.rule == "steering-missing-entry" for f in findings)


class TestTableChecks:
    def test_duplicate_exact_entries_are_flagged(self, system):
        device = system.simulator.switch("tor")
        table = device.forwarding_table
        # install() rejects duplicates, so seed the corruption directly the
        # way a buggy bulk-loader would.
        table._entries.append(table._entries[0])
        findings = check_switch(device)
        assert any(f.rule == "table-duplicate-key" for f in findings)

    def test_forward_entry_to_dead_port_is_flagged(self, system):
        device = system.simulator.switch("tor")
        entry = device.forwarding_table._entries[0]
        assert isinstance(entry.action, ForwardAction)
        object.__setattr__(entry.action, "egress_port", 60)
        findings = check_switch(
            device, live_ports={0, 1, 2, 3}, path="<test>"
        )
        assert any(f.rule == "dead-egress-port" for f in findings)


def build_fabric() -> NetworkSimulator:
    """Three racks of two (h4, h5 under leaf2) under two spines."""
    return NetworkSimulator(leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2))


class _MultiHomedTopology(Topology):
    """A topology whose hosts may take a second uplink."""

    def _next_port(self, device_name: str) -> int:
        port = self._ports_in_use[device_name]
        self._ports_in_use[device_name] = port + 1
        return port


class TestForwardingChecks:
    def test_rack_aggregated_fabric_is_clean(self):
        sim = build_fabric()
        assert any(
            isinstance(e.action, EcmpAction)
            for e in sim.switch("leaf0").forwarding_table.entries()
        )
        assert check_simulator(sim) == []

    def test_dead_ecmp_member_is_flagged(self):
        sim = build_fabric()
        device = sim.switch("leaf0")
        group = next(
            e.action
            for e in device.forwarding_table.entries()
            if isinstance(e.action, EcmpAction)
        )
        object.__setattr__(group, "ports", (group.ports[0], 60))
        findings = check_simulator(sim)
        # Both remote racks share the group: one finding.
        assert [(f.rule, f.path) for f in findings] == [("dead-egress-port", "<sim>:leaf0")]
        assert "ECMP group member references port 60" in findings[0].message

    @staticmethod
    def _pin_h4(sim: NetworkSimulator, via: str) -> list:
        """Add a per-host entry for h4 on leaf0, beside leaf2's rack entry."""
        device = sim.switch("leaf0")
        device.switch.install_rule(
            FlowRule.create(
                FORWARDING_TABLE,
                {"dst": "h4"},
                "forward",
                {"egress_port": sim.topology.port_towards("leaf0", via)},
            )
        )
        return check_switch(device, path="<test>")

    def test_an_agreeing_per_host_entry_is_a_redundant_overlap(self):
        sim = build_fabric()
        findings = self._pin_h4(sim, sim.routes.next_hop("leaf0", "h4"))
        assert [f.rule for f in findings] == ["forwarding-overlap"]
        assert "'h4' overlaps the aggregate entry for RackPrefix(switch='leaf2')" in (
            findings[0].message
        )
        assert findings[0].message.endswith("(redundant)")

    def test_a_disagreeing_per_host_entry_is_a_conflicting_overlap(self):
        sim = build_fabric()
        chosen = sim.routes.next_hop("leaf0", "h4")
        other = "spine1" if chosen == "spine0" else "spine0"
        findings = self._pin_h4(sim, other)
        assert [f.rule for f in findings] == ["forwarding-overlap"]
        assert findings[0].message.endswith("(conflict)")

    def test_multi_homed_per_host_entries_are_exempt(self):
        topo = _MultiHomedTopology(name="dual_homed")
        topo.add_switch("spine0")
        for leaf in ("leaf0", "leaf1"):
            topo.add_switch(leaf)
            topo.connect(leaf, "spine0")
        for host, leaves in (("h0", ("leaf0",)), ("m", ("leaf0", "leaf1")), ("h1", ("leaf1",))):
            topo.add_host(host)
            for leaf in leaves:
                topo.connect(host, leaf)
        sim = NetworkSimulator(topo)
        assert sim.routes.multi_homed == ["m"]
        assert all(
            {"dst": "m"} in [e.match for e in s.forwarding_table.entries()]
            for s in topo.switches()
        )
        assert check_simulator(sim) == []


class TestResourceChecks:
    def test_parser_budget_overflow_is_flagged(self):
        # 64-byte keys x 16 pairs blows the default 300-byte parse budget.
        system = DaietSystem.single_rack(
            4, config=DaietConfig(register_slots=64, key_width=64, pairs_per_packet=16)
        )
        system.install_job(mappers=["h0", "h1", "h2"], reducers=["h3"])
        findings = check_simulator(system.simulator)
        assert any(f.rule == "parser-budget-exceeded" for f in findings)

    def test_index_stack_capacity_mismatch_is_flagged(self, system):
        tree = system.engine("tor").tree(next(iter(system.engine("tor")._trees)))
        tree.index_stack.capacity = 16
        findings = check_simulator(system.simulator)
        assert any(f.rule == "register-capacity-mismatch" for f in findings)

    def test_released_sram_allocation_is_flagged(self, system):
        device = system.simulator.switch("tor")
        tree_id = next(iter(system.engine("tor")._trees))
        device.switch.ledger.release_sram(f"tree{tree_id}")
        findings = check_simulator(system.simulator)
        assert any(
            f.rule == "sram-ledger-mismatch" and "no SRAM allocation" in f.message
            for f in findings
        )

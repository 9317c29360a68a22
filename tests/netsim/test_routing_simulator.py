"""Unit and integration tests for routing and the network simulator."""

from __future__ import annotations

import pytest

from repro.core.errors import RoutingError, SimulationError, TableError
from repro.dataplane.actions import EcmpAction, ForwardAction
from repro.dataplane.tables import FlowRule
from repro.netsim.devices import FORWARDING_TABLE
from repro.netsim.routing import (
    RackPrefix,
    compute_routes,
    install_forwarding_rules,
    paths_towards,
    planned_forwarding_entries,
)
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import leaf_spine, single_rack
from repro.transport.packets import UdpDatagram


class TestRouting:
    def test_single_rack_routes_via_tor(self):
        topo = single_rack(num_hosts=3)
        routes = compute_routes(topo)
        assert routes.next_hop("tor", "h0") == "h0"
        assert routes.next_hop("tor", "h2") == "h2"

    def test_leaf_spine_paths_are_valley_free(self):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        # h0 and h1 share leaf0; h2 lives under leaf1.
        # Hosts never forward: a path's interior is its switches.
        assert paths_towards(topo, "h1", ["h0"])["h0"][1:-1] == ["leaf0"]
        cross = paths_towards(topo, "h2", ["h0"])["h0"][1:-1]
        assert cross[0] == "leaf0" and cross[-1] == "leaf1" and len(cross) == 3

    def test_shortest_path_endpoints(self):
        topo = single_rack(num_hosts=2)
        assert paths_towards(topo, "h1", ["h0"])["h0"] == ["h0", "tor", "h1"]
        assert paths_towards(topo, "h0", ["h0"])["h0"] == ["h0"]

    def test_unreachable_destination_raises(self):
        topo = single_rack(num_hosts=2)
        with pytest.raises(RoutingError):
            paths_towards(topo, "missing", ["h0"])

    def test_install_forwarding_rules_counts(self):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        planned = planned_forwarding_entries(topo)
        installed = install_forwarding_rules(topo)
        # A leaf holds its own two hosts and the other rack; a spine, both
        # racks.
        assert planned == {"spine0": 2, "spine1": 2, "leaf0": 3, "leaf1": 3}
        assert {s.name: len(s.forwarding_table) for s in topo.switches()} == planned
        assert installed == 10

    def test_installed_tables_equal_one_rule_at_a_time(self):
        """The per-switch batch leaves what N ``install`` calls would."""

        def fabric():
            return leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)

        batched, reference = fabric(), fabric()
        routes = compute_routes(batched, ecmp_seed=5)
        install_forwarding_rules(batched, routes)
        for switch in reference.switches():
            name = switch.name
            table = switch.forwarding_table
            for host in routes.racks.get(name, ()):
                table.install(
                    FlowRule.create(
                        FORWARDING_TABLE,
                        {"dst": host},
                        "forward",
                        {"egress_port": reference.port_towards(name, host)},
                    )
                )
            for root in routes.racks:
                if root == name:
                    continue
                members = routes.group(name, root)
                ports = tuple(reference.port_towards(name, hop) for hop, _ in members)
                table.install(
                    FlowRule.create(
                        FORWARDING_TABLE,
                        {"dst": RackPrefix(root)},
                        *(
                            ("forward", {"egress_port": ports[0]})
                            if len(ports) == 1
                            else (
                                "ecmp",
                                {
                                    "ports": ports,
                                    "paths": tuple(paths for _, paths in members),
                                    "seed": 5,
                                    "switch": name,
                                },
                            )
                        ),
                    )
                )
        for got, want in zip(batched.switches(), reference.switches()):
            assert [(e.match, e.action) for e in got.forwarding_table.entries()] == [
                (e.match, e.action) for e in want.forwarding_table.entries()
            ]
            # One batch and one address plan.
            assert got.forwarding_table.version == 2
            assert got.forwarding_table.address_plan is routes.address_plan
        # A leaf reaches both remote racks through one shared group.
        groups = [
            e.action
            for e in batched.get("leaf0").forwarding_table.entries()
            if isinstance(e.action, EcmpAction)
        ]
        assert len(groups) == 2 and groups[0] is groups[1]

    def test_reinstall_skips_and_clears(self):
        """The failover reinstall: ``skip`` untouched, the rest replaced."""
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2)
        install_forwarding_rules(topo)
        before = {s.name: s.forwarding_table.entries() for s in topo.switches()}
        routes = compute_routes(topo, exclude=["spine1"])
        installed = install_forwarding_rules(
            topo, routes, skip=["spine1"], clear_first=True
        )
        # Three leaves with two hosts and two remote racks each; spine0 with
        # three racks.
        assert installed == 3 * 4 + 3
        for switch in topo.switches():
            table = switch.forwarding_table
            if switch.name == "spine1":
                assert table.entries() == before["spine1"]
                continue
            assert len(table) == planned_forwarding_entries(topo)[switch.name]
            assert table.address_plan is routes.address_plan
            spine1_port = (
                topo.port_towards(switch.name, "spine1")
                if switch.name.startswith("leaf")
                else None
            )
            # With one spine left, every rack entry is a plain forward.
            assert all(
                type(e.action) is ForwardAction and e.action.egress_port != spine1_port
                for e in table.entries()
            )
        with pytest.raises(TableError, match="duplicate"):
            install_forwarding_rules(topo, routes, skip=["spine1"])


class TestNetworkSimulator:
    def test_host_to_host_delivery(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        received = []
        sim.host("h1").set_receiver(received.append)
        packet = UdpDatagram(src="h0", dst="h1", payload_bytes=128)
        sim.send("h0", packet)
        sim.run()
        assert received == [packet]
        assert sim.host("h1").counters.packets_received == 1
        assert sim.host("h1").counters.bytes_received == packet.wire_bytes()
        assert sim.now > 0.0

    def test_each_hop_counts_a_packet_once(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        packet = UdpDatagram(src="h0", dst="h1", payload_bytes=128)
        size = packet.wire_bytes()
        sim.send("h0", packet)
        sim.run()
        sender, receiver = sim.host("h0").counters, sim.host("h1").counters
        tor = sim.switch("tor").switch.counters
        assert (sender.packets_sent, sender.bytes_sent) == (1, size)
        assert (tor.packets_in, tor.bytes_in, tor.packets_out) == (1, size, 1)
        assert (receiver.packets_received, receiver.bytes_received) == (1, size)
        topo = sim.topology
        assert sim.stats.snapshot()["link_traffic"] == {
            topo.link_between("h0", "tor").name: (1, size),
            topo.link_between("h1", "tor").name: (1, size),
        }

    def test_run_stops_at_the_event_cap(self, monkeypatch):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        received = []
        sim.host("h1").set_receiver(received.append)
        for _ in range(3):
            sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=64))
        monkeypatch.setattr("repro.netsim.simulator.MAX_EVENTS", 2)
        assert sim.run() == 2
        assert received == []
        monkeypatch.undo()
        sim.run()
        assert len(received) == 3

    def test_delivery_across_fabric(self):
        sim = NetworkSimulator(leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2))
        received = []
        sim.host("h3").set_receiver(received.append)
        sim.send("h0", UdpDatagram(src="h0", dst="h3", payload_bytes=64))
        sim.run()
        assert len(received) == 1
        # The packet crossed leaf0 -> a spine -> leaf1: three switch hops.
        assert sim.stats.total_link_packets() == 4

    def test_fifo_ordering_per_link(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        received = []
        sim.host("h1").set_receiver(lambda p: received.append(p.payload_bytes))
        # A large packet sent first must still arrive before a small one sent
        # immediately after (links serialize transmissions).
        sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=1400))
        sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=10))
        sim.run()
        assert received == [1400, 10]

    def test_forwarding_table_too_small_fails_before_routing(self, monkeypatch):
        topo = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=3)
        # leaf1 plans its three hosts and one remote rack.
        topo.get("leaf1").forwarding_table.max_entries = 3
        monkeypatch.setattr(
            "repro.netsim.simulator.compute_routes",
            lambda *args, **kwargs: pytest.fail("routes computed before the capacity check"),
        )
        with pytest.raises(TableError) as raised:
            NetworkSimulator(topo)
        message = str(raised.value)
        assert "'leaf1'" in message and "'l3_forward'" in message
        assert "3 entries" in message and "needs 4" in message
        assert all(len(s.forwarding_table) == 0 for s in topo.switches())

    def test_a_4096_worker_fabric_fits_its_tables_and_forwards(self):
        # 257 racks of 16: per-host rules would need 4,112 entries per switch.
        topo = leaf_spine(num_leaves=257, num_spines=4, hosts_per_leaf=16)
        sim = NetworkSimulator(topo)
        assert max(len(s.forwarding_table) for s in topo.switches()) <= 16 + 256
        received = []
        sim.host("h4111").set_receiver(received.append)
        sim.send("h1", UdpDatagram(src="h1", dst="h4111", payload_bytes=64))
        sim.run()
        assert [p.dst for p in received] == ["h4111"]
        assert sim.stats.total_link_packets() == 4
        assert len(paths_towards(topo, "h4111", ["h1"])["h1"]) == 5
        crossed = {s.name for s in topo.switches() if s.switch.counters.packets_in}
        assert crossed == {"leaf0", sim.routes.next_hop("leaf0", "h4111"), "leaf256"}

    def test_send_from_switch_rejected(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        with pytest.raises(SimulationError):
            sim.send("tor", UdpDatagram(src="tor", dst="h1", payload_bytes=1))

    def test_unknown_destination_is_dropped(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        sim.send("h0", UdpDatagram(src="h0", dst="nowhere", payload_bytes=1))
        sim.run()
        assert sim.host("h1").counters.packets_received == 0
        assert sim.switch("tor").switch.counters.packets_dropped == 1

    def test_host_and_switch_accessors(self):
        sim = NetworkSimulator(single_rack(num_hosts=2))
        assert sim.host("h0").name == "h0"
        assert sim.switch("tor").name == "tor"
        with pytest.raises(SimulationError):
            sim.host("tor")
        with pytest.raises(SimulationError):
            sim.switch("h0")

"""Unit tests for links and topology builders."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.errors import TopologyError
from repro.netsim.devices import Host, SwitchDevice
from repro.netsim.links import Endpoint, Link
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import Topology, fat_tree, leaf_spine, single_rack
from repro.transport.packets import UdpDatagram


class TestLink:
    def make_link(self, bandwidth: float = 1e9) -> Link:
        return Link(a=Endpoint("a", 0), b=Endpoint("b", 3), bandwidth_bps=bandwidth)

    def test_ports(self):
        link = self.make_link()
        assert link.port_of("a") == 0
        assert link.port_of("b") == 3

    def test_transmission_delay_includes_serialization(self):
        # Each hop costs wire bytes / bandwidth (bytes per second) plus the
        # propagation delay, and a link serializes one packet at a time.
        topo = Topology(name="pair")
        topo.add_switch("tor")
        for host in ("h0", "h1"):
            topo.add_host(host)
        topo.connect("h0", "tor", bandwidth_bps=1000.0, propagation_s=0.5)
        topo.connect("h1", "tor", bandwidth_bps=2000.0, propagation_s=0.25)
        sim = NetworkSimulator(topo)
        arrivals = []
        sim.host("h1").set_receiver(lambda packet: arrivals.append(sim.now))
        first = UdpDatagram(src="h0", dst="h1", payload_bytes=100)
        sim.send("h0", first)
        sim.send("h0", UdpDatagram(src="h0", dst="h1", payload_bytes=100))
        sim.run()
        size = first.wire_bytes()
        hop1, hop2 = size / 1000.0, size / 2000.0
        assert arrivals[0] == pytest.approx(hop1 + 0.5 + hop2 + 0.25)
        # The second packet waits for the first to leave h0's NIC.
        assert arrivals[1] == pytest.approx(2 * hop1 + 0.5 + hop2 + 0.25)

    def test_unknown_sender_rejected(self):
        link = self.make_link()
        with pytest.raises(TopologyError):
            link.port_of("zzz")

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            Link(a=Endpoint("a", 0), b=Endpoint("b", 0), bandwidth_bps=0)
        with pytest.raises(TopologyError):
            Link(a=Endpoint("a", 0), b=Endpoint("a", 1))


class TestTopology:
    def test_add_and_connect_devices(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_switch("s0")
        link = topo.connect("h0", "s0")
        assert topo.link_between("h0", "s0") is link
        assert topo.neighbors("s0") == ["h0"]
        assert topo.port_towards("h0", "s0") == 0

    def test_duplicate_names_rejected(self):
        topo = Topology()
        topo.add_host("x")
        with pytest.raises(TopologyError):
            topo.add_switch("x")

    def test_duplicate_links_rejected(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_switch("s0")
        topo.connect("h0", "s0")
        with pytest.raises(TopologyError):
            topo.connect("h0", "s0")

    def test_host_single_nic(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_switch("s0")
        topo.add_switch("s1")
        topo.connect("h0", "s0")
        with pytest.raises(TopologyError):
            topo.connect("h0", "s1")

    def test_unknown_device_rejected(self):
        topo = Topology()
        topo.add_host("h0")
        with pytest.raises(TopologyError):
            topo.connect("h0", "ghost")
        with pytest.raises(TopologyError):
            topo.get("ghost")

    def test_validate_detects_disconnected_host(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_switch("s0")
        with pytest.raises(TopologyError):
            topo.validate()

    def test_validate_detects_two_islands(self):
        topo = Topology()
        for island in ("a", "b"):
            topo.add_switch(f"s_{island}")
            topo.add_host(f"h_{island}")
            topo.connect(f"h_{island}", f"s_{island}")
        with pytest.raises(TopologyError, match="^topology is not connected$"):
            topo.validate()
        topo.connect("s_a", "s_b")
        topo.validate()

    def test_importing_repro_does_not_import_networkx(self):
        """networkx serves the test oracles only; every run would pay its import."""
        code = "import repro, repro.netsim.topology, sys; sys.exit('networkx' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestBuilders:
    def test_single_rack_shape(self):
        topo = single_rack(num_hosts=5)
        assert len(topo.hosts()) == 5
        assert len(topo.switches()) == 1
        assert len(topo.links) == 5

    def test_single_rack_requires_hosts(self):
        with pytest.raises(TopologyError):
            single_rack(num_hosts=0)

    def test_leaf_spine_shape(self):
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=4)
        switches = {s.name for s in topo.switches()}
        assert {"spine0", "spine1", "leaf0", "leaf1", "leaf2"} <= switches
        assert len(topo.hosts()) == 12
        # Each leaf connects to each spine plus its hosts.
        assert len(topo.links) == 3 * 2 + 12

    def test_leaf_spine_validation(self):
        with pytest.raises(TopologyError):
            leaf_spine(num_leaves=0, num_spines=1, hosts_per_leaf=1)

    def test_fat_tree_k4_shape(self):
        topo = fat_tree(4)
        hosts = topo.hosts()
        switches = topo.switches()
        assert len(hosts) == 16  # k^3 / 4
        assert len(switches) == 4 + 4 * 4 // 2 + 4 * 4 // 2  # 4 core + 8 agg + 8 edge
        topo.validate()

    def test_fat_tree_requires_even_k(self):
        with pytest.raises(TopologyError):
            fat_tree(3)

    def test_devices_have_expected_types(self):
        topo = single_rack(num_hosts=2)
        assert isinstance(topo.get("h0"), Host)
        assert isinstance(topo.get("tor"), SwitchDevice)

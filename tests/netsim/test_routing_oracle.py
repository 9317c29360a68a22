"""Installed forwarding must send every packet where the path oracle says.

The router keeps one shortest-path DAG per rack (attachment switch) and
installs one ``l3_forward`` entry per rack; an ECMP group picks the member
per packet. It replaced per-host rules, which replaced a
per-(source, destination) ``sorted(nx.all_shortest_paths(...))``
enumeration. Every next hop — including the hash-indexed ECMP choice among
equal-cost paths — must match what the enumeration picks, or forwarding
(and every figure derived from it) silently changes. These tests
re-implement the enumeration as an oracle, keep a one-BFS-per-host router
as a second reference, and compare exhaustively on ECMP-heavy fabrics: the
router's answers and the egress port each installed switch's forwarding
stage chooses, before and after a failover reinstall.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import networkx as nx
import pytest

from repro.core.errors import RoutingError
from repro.netsim.devices import Host
from repro.netsim.routing import (
    _DestinationDag,
    _split_links,
    compute_routes,
    install_forwarding_rules,
    paths_towards,
)
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.topology import Topology, fat_tree, leaf_spine
from repro.transport.packets import UdpDatagram


def _graph(topology: Topology) -> nx.Graph:
    """The topology as a networkx graph; nodes carry a ``kind`` attribute."""
    graph = nx.Graph()
    for name, device in topology.devices.items():
        graph.add_node(name, kind="host" if isinstance(device, Host) else "switch")
    graph.add_edges_from((link.a.device, link.b.device) for link in topology.links)
    return graph


def _transit(graph: nx.Graph, *endpoints: str) -> nx.Graph:
    """The graph a path between ``endpoints`` may use: hosts never forward,
    so every interior node is a switch."""
    return graph.subgraph(
        [n for n, kind in graph.nodes(data="kind") if kind == "switch" or n in endpoints]
    ).copy()


def _oracle_pick(transit: nx.Graph, src: str, dst: str, seed: int) -> list[str]:
    """The hash-indexed path among the sorted shortest ``src`` -> ``dst`` paths."""
    paths = sorted(nx.all_shortest_paths(transit, src, dst))
    if len(paths) == 1:
        return paths[0]
    digest = hashlib.sha256(f"{seed}:{src}->{dst}".encode()).digest()
    return paths[int.from_bytes(digest[:4], "big") % len(paths)]


def _oracle_path(topology: Topology, src: str, dst: str, seed: int = 0) -> list[str]:
    return _oracle_pick(_transit(_graph(topology), src, dst), src, dst, seed)


def _oracle_routes(
    topology: Topology, seed: int = 0, exclude: Iterable[str] = ()
) -> dict[str, dict[str, str]]:
    """switch -> host -> next hop, for every surviving (switch, host) pair."""
    graph = _graph(topology)
    graph.remove_nodes_from(list(exclude))
    switches = [s.name for s in topology.switches() if s.name in graph]
    oracle: dict[str, dict[str, str]] = {switch: {} for switch in switches}
    for host in topology.hosts():
        if host.name in graph:
            transit = _transit(graph, host.name)
            for switch in switches:
                oracle[switch][host.name] = _oracle_pick(transit, switch, host.name, seed)[1]
    return oracle


def _per_destination_routes(
    topology: Topology, seed: int = 0, exclude: Iterable[str] = ()
) -> dict[str, dict[str, str]]:
    """The router before DAGs were shared per rack: one BFS per host."""
    switch_links, host_links = _split_links(topology, exclude)
    next_hops: dict[str, dict[str, str]] = {switch: {} for switch in switch_links}
    for host in host_links:
        dag = _DestinationDag(switch_links, host_links, host)
        for switch in switch_links:
            if switch not in dag.counts:
                raise RoutingError(f"host {host!r} unreachable from switch {switch!r}")
            next_hops[switch][host] = dag.first_hop(switch, seed)
    return next_hops


def _router_answers(topology: Topology, routes) -> dict[str, dict[str, str]]:
    hosts = [*routes.address_plan, *routes.multi_homed]
    return {
        switch: {dst: routes.next_hop(switch, dst) for dst in hosts}
        for switch in routes.switches
    }


def _assert_forwarding_matches(topology: Topology, oracle: dict[str, dict[str, str]]) -> None:
    """Every switch sends every host's datagram out of the port towards the
    oracle's next hop."""
    for switch_name, hops in oracle.items():
        device = topology.get(switch_name)
        for dst, next_hop in hops.items():
            want = [topology.port_towards(switch_name, next_hop)]
            datagram = UdpDatagram(src="probe", dst=dst, payload_bytes=8)
            out = device.deliver(datagram, 0, datagram.wire_bytes())
            assert [port for port, _ in out] == want, (switch_name, dst)


class _MultiHomedTopology(Topology):
    """A topology whose hosts may take a second uplink."""

    def _next_port(self, device_name: str) -> int:
        port = self._ports_in_use[device_name]
        self._ports_in_use[device_name] = port + 1
        return port


def _dual_homed_fabric() -> Topology:
    """Three leaves under two spines; ``h2`` hangs off both leaf1 and leaf2."""
    topo = _MultiHomedTopology(name="dual_homed")
    for spine in ("spine0", "spine1"):
        topo.add_switch(spine)
    for leaf in ("leaf0", "leaf1", "leaf2"):
        topo.add_switch(leaf)
        for spine in ("spine0", "spine1"):
            topo.connect(leaf, spine)
    for host, leaves in (
        ("h0", ("leaf0",)),
        ("h1", ("leaf0",)),
        ("h2", ("leaf1", "leaf2")),
        ("h3", ("leaf2",)),
        ("h4", ("leaf1",)),
    ):
        topo.add_host(host)
        for leaf in leaves:
            topo.connect(host, leaf)
    topo.validate()
    return topo


FABRICS = [
    pytest.param(lambda: leaf_spine(num_leaves=5, num_spines=4, hosts_per_leaf=4), 0, id="leaf-spine-0"),
    pytest.param(
        lambda: leaf_spine(num_leaves=5, num_spines=4, hosts_per_leaf=4), 2017, id="leaf-spine-2017"
    ),
    pytest.param(lambda: fat_tree(4), 0, id="fat-tree-4"),
    pytest.param(lambda: fat_tree(6), 7, id="fat-tree-6-seed-7"),
    pytest.param(_dual_homed_fabric, 0, id="dual-homed-0"),
    pytest.param(_dual_homed_fabric, 11, id="dual-homed-11"),
]


class TestForwardingMatchesTheOracle:
    @pytest.mark.parametrize(("build", "seed"), FABRICS)
    def test_every_switch_forwards_every_host_as_the_oracle_says(self, build, seed):
        topo = build()
        routes = compute_routes(topo, ecmp_seed=seed)
        install_forwarding_rules(topo, routes)
        oracle = _oracle_routes(topo, seed)
        assert _router_answers(topo, routes) == oracle
        _assert_forwarding_matches(topo, oracle)

    @pytest.mark.parametrize(("build", "seed"), FABRICS)
    def test_the_per_destination_router_agrees(self, build, seed):
        topo = build()
        routes = compute_routes(topo, ecmp_seed=seed)
        assert _router_answers(topo, routes) == _per_destination_routes(topo, seed)

    @pytest.mark.parametrize("exclude", [{"spine1"}, {"spine0", "spine2"}])
    def test_failover_reinstall_around_excluded_spines(self, exclude):
        topo = leaf_spine(num_leaves=4, num_spines=3, hosts_per_leaf=3)
        install_forwarding_rules(topo, compute_routes(topo, ecmp_seed=3))
        routes = compute_routes(topo, ecmp_seed=3, exclude=exclude)
        install_forwarding_rules(topo, routes, skip=exclude, clear_first=True)
        oracle = _oracle_routes(topo, 3, exclude)
        assert set(oracle) == set(routes.switches) == {
            s.name for s in topo.switches()
        } - exclude
        assert _router_answers(topo, routes) == oracle
        assert oracle == _per_destination_routes(topo, 3, exclude)
        _assert_forwarding_matches(topo, oracle)

    def test_excluded_leaf_of_a_dual_homed_host(self):
        """Without leaf1, ``h2`` has one uplink left and joins leaf2's rack
        (``h4`` hangs off leaf1 alone and goes with it)."""
        topo = _dual_homed_fabric()
        exclude = {"leaf1", "h4"}
        install_forwarding_rules(topo, compute_routes(topo, ecmp_seed=3))
        routes = compute_routes(topo, ecmp_seed=3, exclude=exclude)
        install_forwarding_rules(topo, routes, skip=exclude, clear_first=True)
        assert routes.multi_homed == []
        assert routes.racks["leaf2"] == ["h2", "h3"]
        oracle = _oracle_routes(topo, 3, exclude)
        assert _router_answers(topo, routes) == oracle
        _assert_forwarding_matches(topo, oracle)

    def test_excluded_tor_raises_as_before(self):
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=2)
        with pytest.raises(RoutingError) as reference:
            _per_destination_routes(topo, 0, {"leaf1"})
        with pytest.raises(RoutingError) as raised:
            compute_routes(topo, exclude={"leaf1"})
        assert str(raised.value) == str(reference.value)
        assert str(raised.value) == "host 'h2' unreachable from switch 'spine0'"


class TestMultiHomedHosts:
    def test_dual_homed_host_is_reached_through_both_leaves(self):
        routes = compute_routes(_dual_homed_fabric())
        assert routes.next_hop("leaf1", "h2") == "h2"
        assert routes.next_hop("leaf2", "h2") == "h2"
        assert routes.multi_homed == ["h2"] and "h2" not in routes.address_plan

    def test_a_multi_homed_host_is_not_a_transit_node(self):
        """leaf1 once reached h3 through h2, which never forwards: the
        datagram landed in h2's receiver."""
        topo = _dual_homed_fabric()
        routes = compute_routes(topo, ecmp_seed=2)
        assert routes.group("leaf1", "leaf2") == (("spine0", 1), ("spine1", 1))
        sim = NetworkSimulator(topo)
        install_forwarding_rules(topo, routes, clear_first=True)
        received: dict[str, list[str]] = {}
        for host in ("h2", "h3"):
            sim.host(host).set_receiver(
                lambda packet, host=host: received.setdefault(host, []).append(packet.dst)
            )
        sim.send("h4", UdpDatagram(src="h4", dst="h3", payload_bytes=64))
        sim.run()
        assert received == {"h3": ["h3"]}

    def test_tree_paths_do_not_transit_a_host(self):
        topo = _dual_homed_fabric()
        assert paths_towards(topo, "h3", ["h4"], ecmp_seed=2)["h4"][2] in ("spine0", "spine1")


class TestPathsMatchTheOracle:
    def test_full_paths_match_on_ecmp_fabric(self):
        topo = fat_tree(4)
        hosts = [h.name for h in topo.hosts()]
        for src in hosts[:4]:
            for dst in hosts:
                if src != dst:
                    assert paths_towards(topo, dst, [src])[src] == _oracle_path(
                        topo, src, dst
                    ), (src, dst)

    def test_paths_towards_matches_per_source_calls(self):
        topo = leaf_spine(num_leaves=3, num_spines=2, hosts_per_leaf=3)
        hosts = [h.name for h in topo.hosts()]
        dst = hosts[0]
        sources = hosts[1:]
        bulk = paths_towards(topo, dst, sources)
        for src in sources:
            assert bulk[src] == paths_towards(topo, dst, [src])[src]

    def test_ecmp_actually_exercised(self):
        """The fabrics above really have multiple equal-cost paths, and the
        installed tables really hold ECMP groups."""
        topo = fat_tree(4)
        graph = _graph(topo)
        hosts = [h.name for h in topo.hosts()]
        assert any(
            len(list(nx.all_shortest_paths(graph, hosts[0], dst))) > 1
            for dst in hosts[1:]
        )
        install_forwarding_rules(topo)
        actions = {type(e.action).__name__ for s in topo.switches() for e in s.forwarding_table.entries()}
        assert actions == {"ForwardAction", "EcmpAction"}
